import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.linalg

from fogplan import (
    Beamformer,
    ChannelSet,
    ScenarioSpec,
    access_delay,
    generate_channels,
    generate_scenario,
    mmse_beamformer,
    sinr,
    uplink_rates,
)
from fogplan.phy import dbm_to_watt, path_loss


def _channels(h, user_to_ru=None, tx_power_w=1.0, noise_power_w=1.0):
    h = np.atleast_2d(np.asarray(h, dtype=complex))
    if user_to_ru is None:
        user_to_ru = np.zeros(h.shape[0], dtype=int)
    return ChannelSet(
        h=h,
        user_to_ru=user_to_ru,
        tx_power_w=tx_power_w,
        noise_power_w=np.atleast_1d(noise_power_w),
        num_antennas=h.shape[1],
    )


def test_generation_is_deterministic():
    scenario = generate_scenario(ScenarioSpec(num_users=6, num_rus=3, num_dus=1, seed=4))
    kw = dict(seed=77)
    a = generate_channels(scenario.topology, scenario.ru_positions_m, scenario.user_positions_m, **kw)
    b = generate_channels(scenario.topology, scenario.ru_positions_m, scenario.user_positions_m, **kw)
    assert np.array_equal(a.h, b.h)
    assert a.tx_power_w == b.tx_power_w
    assert np.array_equal(a.noise_power_w, b.noise_power_w)


def test_path_loss_exponent_four_power_ratio():
    assert path_loss(200.0) / path_loss(100.0) == pytest.approx(1.0 / 16.0)
    # below the reference distance the loss is clamped
    assert path_loss(0.2) == 1.0


def test_mean_channel_power_follows_path_loss():
    rng = np.random.default_rng(0)
    scenario = generate_scenario(ScenarioSpec(num_users=400, num_rus=1, num_dus=1, seed=8))
    topo = scenario.topology
    d = np.linalg.norm(scenario.user_positions_m - scenario.ru_positions_m[topo.user_to_ru], axis=1)
    ch = generate_channels(topo, scenario.ru_positions_m, scenario.user_positions_m, seed=12)
    power = np.mean(np.abs(ch.h) ** 2, axis=1)
    ratio = power / path_loss(d)
    # per-entry fading power is unit mean
    assert np.mean(ratio) == pytest.approx(1.0, rel=0.05)


def test_vectors_have_m_antennas():
    scenario = generate_scenario(ScenarioSpec(num_users=5, seed=2))
    ch = generate_channels(scenario.topology, scenario.ru_positions_m, scenario.user_positions_m, seed=1)
    assert ch.h.shape == (5, 10)
    assert ch.num_antennas == 10


def test_default_powers_from_dbm():
    assert dbm_to_watt(35.0) == pytest.approx(10 ** 0.5)
    scenario = generate_scenario(ScenarioSpec(num_users=2, seed=2))
    ch = generate_channels(scenario.topology, scenario.ru_positions_m, scenario.user_positions_m, seed=1)
    assert ch.tx_power_w == pytest.approx(10 ** 0.5)
    # -174 dBm/Hz over 10 MHz
    assert ch.noise_power_w[0] == pytest.approx(10 ** ((-174 - 30) / 10) * 10e6)


def test_mmse_single_user_closed_form():
    ch = _channels([[1.0, 0.0]])
    bf = mmse_beamformer(ch, 0)
    assert np.allclose(bf.u[0], [0.5, 0.0])


def test_mmse_orthogonal_users_decouple():
    ch = _channels([[1.0, 0.0], [0.0, 1.0]])
    bf = mmse_beamformer(ch, 0)
    assert np.allclose(bf.vector_for(0), [0.5, 0.0])
    assert np.allclose(bf.vector_for(1), [0.0, 0.5])


def test_mmse_empty_ru_rejected():
    ch = _channels([[1.0, 0.0]])
    with pytest.raises(ValueError, match="serves no users"):
        mmse_beamformer(ch, 5)


def test_mmse_matches_generalized_eigenvector_oracle():
    rng = np.random.default_rng(11)
    m, n_users = 10, 3
    h = (rng.standard_normal((n_users, m)) + 1j * rng.standard_normal((n_users, m))) / math.sqrt(2)
    pt, noise = 2.0, 0.5
    ch = _channels(h, tx_power_w=pt, noise_power_w=noise)
    bf = mmse_beamformer(ch, 0)
    for k in range(n_users):
        signal_mat = pt * np.outer(h[k], h[k].conj())
        interference = noise * np.eye(m, dtype=complex)
        for l in range(n_users):
            if l != k:
                interference += pt * np.outer(h[l], h[l].conj())
        eigvals, eigvecs = scipy.linalg.eigh(signal_mat, interference)
        u_star = eigvecs[:, -1]
        s_mmse = sinr(ch, bf, k)
        s_eig = sinr(ch, Beamformer(users=[k], u=u_star[None, :]), k)
        assert s_mmse >= s_eig * (1 - 1e-9)
        assert s_mmse == pytest.approx(s_eig, rel=1e-9)


def test_sinr_matched_filter_single_user():
    h = np.array([1.0 + 1j, 2.0, 0.5j])
    ch = _channels(h[None, :])
    value = sinr(ch, Beamformer(users=[0], u=h[None, :]), 0)
    assert value == pytest.approx(np.linalg.norm(h) ** 2)


def test_sinr_scale_invariance():
    rng = np.random.default_rng(5)
    h = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    ch = _channels(h)
    bf = mmse_beamformer(ch, 0)
    base = sinr(ch, bf, 1)
    for c in (2.0, -0.3, 1j, 0.7 - 0.1j):
        scaled = Beamformer(users=bf.users, u=c * bf.u)
        assert sinr(ch, scaled, 1) == pytest.approx(base, rel=1e-12)


def test_mmse_beats_random_candidates():
    rng = np.random.default_rng(21)
    h = (rng.standard_normal((4, 10)) + 1j * rng.standard_normal((4, 10))) / math.sqrt(2)
    ch = _channels(h, tx_power_w=3.0, noise_power_w=0.2)
    bf = mmse_beamformer(ch, 0)
    candidates = rng.standard_normal((500, 10)) + 1j * rng.standard_normal((500, 10))
    candidates /= np.linalg.norm(candidates, axis=1, keepdims=True)
    for k in range(4):
        best_random = max(
            sinr(ch, Beamformer(users=[k], u=candidates[i][None, :]), k) for i in range(0, 500, 1)
        )
        assert sinr(ch, bf, k) >= best_random


def test_sinr_rejects_zero_beamformer():
    ch = _channels([[1.0, 0.0]])
    with pytest.raises(ValueError, match="zero"):
        sinr(ch, Beamformer(users=[0], u=np.zeros((1, 2), dtype=complex)), 0)


def test_non_finite_sinrs_are_refused():
    # At an extreme noise power the signal and noise terms underflow: 0/0
    # at an uplink bandwidth of 1e300 Hz and x/0 at 1e-300 Hz.  The rates
    # refuse a NaN or infinite SINR, naming the RU and its bandwidth, and so
    # does the SINR of one user; the suite makes any RuntimeWarning an error.
    scenario = generate_scenario(ScenarioSpec(num_users=4, num_rus=2, num_dus=1, seed=2))
    for band in (1e300, 1e-300):
        topo = dataclasses.replace(scenario.topology, uplink_bandwidth_hz=np.full(2, band))
        ch = generate_channels(topo, scenario.ru_positions_m, scenario.user_positions_m, seed=3)
        message = rf"RU \d: the SINR at uplink bandwidth {re.escape(f'{band:g}')} Hz is not finite"
        with pytest.raises(ValueError, match=message):
            uplink_rates(topo, ch)
    h = [[1.0, 0.0]]
    for u, noise in (([[1e-200, 0.0]], 1.0), ([[1.0, 0.0]], 1e-320)):  # NaN, then inf
        with pytest.raises(ValueError, match="SINR of user 0 is (nan|inf)"):
            sinr(_channels(h, noise_power_w=noise), Beamformer(users=[0], u=u), 0)


def _per_ru_rates(topo, ch):
    """The rates RU by RU, written out for one RU at a time: its MMSE
    combiners u_k = (sigma^2 I + p_t sum_l h_l h_l^H)^{-1} h_k, each
    user's SINR against the RU's other users, and the Shannon rate B
    log2(1 + SINR) of each.  This is what the stacked kernels must give
    each RU, bit for bit; `mmse_beamformer` must give its combiners."""
    rates = np.zeros(ch.num_users)
    for ru in np.flatnonzero(np.bincount(ch.user_to_ru)).tolist():
        users = ch.users_of_ru(ru)
        H = ch.h[users]
        cov = ch.noise_at(ru) * np.eye(ch.num_antennas, dtype=complex) + ch.tx_power_w * (H.T @ H.conj())
        u = np.linalg.solve(cov, H.T).T
        assert mmse_beamformer(ch, ru).u.tobytes() == u.tobytes(), ru
        gain = ch.tx_power_w * np.abs(u.conj() @ H.T) ** 2
        own = np.eye(users.size, dtype=bool)
        interference = np.where(own, 0.0, gain).sum(axis=1)
        noise = (u.real**2 + u.imag**2).sum(axis=1) * ch.noise_at(ru)
        sinrs = gain[own] / (interference + noise)
        rates[users] = [float(topo.uplink_bandwidth_hz[ru] * np.log2(1.0 + s)) for s in sinrs.tolist()]
    return rates


def test_batched_uplink_rates_equal_the_per_ru_reference(make_topology):
    # `uplink_rates` solves the combiners of all RUs that serve the same
    # number of users as one stack; each rate must be the per-RU
    # computation's bit for bit.  Users per RU, one pattern per antenna
    # count: mixed cell sizes, RUs without users, one-user RUs and RUs with
    # more users than antennas; the noise is per RU or one network value.
    rng = np.random.default_rng(21)
    patterns = (((3, 0, 1, 2, 5), 2), ((1, 1, 1, 0, 1), 1), ((4, 4, 0, 2, 2), 4), ((12, 0, 0, 1, 12), 10))
    for trial in range(12):
        served, antennas = patterns[trial % len(patterns)]
        user_to_ru = rng.permutation(np.repeat(np.arange(5), served))
        num_users = user_to_ru.size
        topo = make_topology(num_users=num_users, num_rus=5, user_to_ru=user_to_ru,
                             uplink_bandwidth_hz=rng.uniform(5e6, 2e7, size=5))
        gain = path_loss(rng.uniform(20.0, 400.0, size=(num_users, 1)))
        fading = rng.standard_normal((num_users, antennas)) + 1j * rng.standard_normal((num_users, antennas))
        h = np.sqrt(gain / 2) * fading
        noise = dbm_to_watt(-174.0) * (topo.uplink_bandwidth_hz if trial % 2 else topo.uplink_bandwidth_hz[:1])
        ch = ChannelSet(h=h, user_to_ru=user_to_ru, tx_power_w=dbm_to_watt(35.0), noise_power_w=noise,
                        num_antennas=antennas)
        rates = uplink_rates(topo, ch)
        assert rates.tobytes() == _per_ru_rates(topo, ch).tobytes(), trial
        assert np.all(rates > 0)
    for seed in range(6):  # generated desk scenarios
        scenario = generate_scenario(ScenarioSpec(num_users=8, num_rus=4, num_dus=2, seed=seed))
        ch = generate_channels(scenario.topology, scenario.ru_positions_m, scenario.user_positions_m, seed=seed)
        assert uplink_rates(scenario.topology, ch).tobytes() == _per_ru_rates(scenario.topology, ch).tobytes()


def test_the_lowest_failing_ru_is_refused(make_topology):
    # The RUs are solved cell size by cell size, but of several RUs whose
    # SINRs are not finite the refusal names the lowest, as a loop over the
    # RUs would: RU 1 (two users) and RU 2 (one user) at an uplink bandwidth
    # of 1e300 Hz, RU 0 (two users) at 10 MHz.
    rng = np.random.default_rng(5)
    user_to_ru = np.array([1, 0, 2, 1, 0])
    for bands, named in (((1e7, 1e300, 1e300), 1), ((1e7, 1e7, 1e300), 2), ((1e300, 1e7, 1e300), 0)):
        topo = make_topology(num_users=5, num_rus=3, user_to_ru=user_to_ru, uplink_bandwidth_hz=np.array(bands))
        h = 1e-4 * (rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4)))
        ch = ChannelSet(h=h, user_to_ru=user_to_ru, tx_power_w=dbm_to_watt(35.0),
                        noise_power_w=dbm_to_watt(-174.0) * topo.uplink_bandwidth_hz, num_antennas=4)
        with pytest.raises(ValueError, match=rf"^RU {named}: the SINR at uplink bandwidth 1e\+300 Hz is not finite"):
            uplink_rates(topo, ch)


def test_rate_monotonicity():
    # At fixed channels, so at fixed SINRs, the rate is linear in the uplink
    # bandwidth: doubling every RU's bandwidth doubles every rate.
    for seed in range(5):
        scenario = generate_scenario(ScenarioSpec(num_users=8, num_rus=4, num_dus=2, seed=seed))
        topo = scenario.topology
        ch = generate_channels(topo, scenario.ru_positions_m, scenario.user_positions_m, seed=seed)
        doubled = dataclasses.replace(topo, uplink_bandwidth_hz=2 * topo.uplink_bandwidth_hz)
        rates = uplink_rates(topo, ch)
        assert np.all(rates > 0)
        assert np.array_equal(uplink_rates(doubled, ch), 2 * rates), seed


def test_access_delay_cases():
    assert access_delay(30e6, 30e6) == pytest.approx(1.0)
    assert access_delay(0.0, 1e6) == 0.0
    assert access_delay(1e6, 0.0) == math.inf


def test_uplink_rates_match_per_user_computation():
    # Each expected SINR is written out per user, apart from the kernel under test.
    for num_users, num_rus in ((6, 3), (100, 10), (200, 1)):
        scenario = generate_scenario(ScenarioSpec(num_users=num_users, num_rus=num_rus, num_dus=1, seed=14))
        topo = scenario.topology
        ch = generate_channels(topo, scenario.ru_positions_m, scenario.user_positions_m, seed=3)
        rates = uplink_rates(topo, ch)
        p = ch.tx_power_w
        for ru in np.unique(topo.user_to_ru):
            bf = mmse_beamformer(ch, int(ru))
            for u, k in zip(bf.u, bf.users):
                signal = p * abs(np.vdot(u, ch.h[k])) ** 2
                interference = sum(p * abs(np.vdot(u, ch.h[l])) ** 2 for l in bf.users if l != k)
                noise = np.vdot(u, u).real * ch.noise_at(int(ru))
                expected = topo.uplink_bandwidth_hz[ru] * math.log2(1 + signal / (interference + noise))
                assert rates[k] == pytest.approx(expected, rel=1e-12), (num_users, num_rus, k)
        assert np.all(rates > 0)


def test_channelset_invariants():
    with pytest.raises(ValueError, match="noise_power_w"):
        _channels([[1.0, 0.0]], noise_power_w=0.0)
    with pytest.raises(ValueError, match="tx_power_w"):
        _channels([[1.0, 0.0]], tx_power_w=0.0)
    with pytest.raises(ValueError, match="shape"):
        ChannelSet(h=np.ones((2, 3), dtype=complex), user_to_ru=[0, 0], tx_power_w=1.0, noise_power_w=[1.0], num_antennas=4)
