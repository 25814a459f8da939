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
    uplink_rate,
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


def test_uplink_rate_values():
    assert uplink_rate(10e6, 7.0) == pytest.approx(30e6)
    assert uplink_rate(10e6, 0.0) == 0.0
    assert uplink_rate(1.0, 1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        uplink_rate(1e6, -0.5)


def test_rate_monotonicity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        b = rng.uniform(1e5, 1e8)
        s1, s2 = sorted(rng.uniform(0, 1e4, size=2))
        assert uplink_rate(b, s2) >= uplink_rate(b, s1)
        assert uplink_rate(2 * b, s2) > uplink_rate(b, s2)


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
                expected = uplink_rate(topo.uplink_bandwidth_hz[ru], signal / (interference + noise))
                assert rates[k] == pytest.approx(expected, rel=1e-12), (num_users, num_rus, k)
        assert np.all(rates > 0)


def test_channelset_invariants():
    with pytest.raises(ValueError, match="noise_power_w"):
        _channels([[1.0, 0.0]], noise_power_w=0.0)
    with pytest.raises(ValueError, match="tx_power_w"):
        _channels([[1.0, 0.0]], tx_power_w=0.0)
    with pytest.raises(ValueError, match="shape"):
        ChannelSet(h=np.ones((2, 3), dtype=complex), user_to_ru=[0, 0], tx_power_w=1.0, noise_power_w=[1.0], num_antennas=4)
