"""The package's documented surface: the README's library example and the
names `fogplan` exports."""

import re
from pathlib import Path

import fogplan

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    result = namespace["result"]
    assert str(result.decision.tiers) in capsys.readouterr().out
    assert namespace["truth"].total_delay_s <= result.total_delay_s * (1 + 1e-9)


def test_exported_names_resolve():
    assert len(set(fogplan.__all__)) == len(fogplan.__all__)
    for name in fogplan.__all__:
        assert getattr(fogplan, name) is not None, name
    namespace = {}
    exec("from fogplan import *", namespace)
    assert set(fogplan.__all__) <= set(namespace)
    removed = {
        fogplan.solver: ("RelaxedPoint", "dual_update", "extract_decision", "marginal_costs"),
        fogplan.phy: ("mmse_beamformers", "uplink_rate"),
        fogplan.oracle: ("objective_of",),
    }
    for module, names in removed.items():
        for gone in names:
            assert not hasattr(fogplan, gone), gone
            assert not hasattr(module, gone), gone
