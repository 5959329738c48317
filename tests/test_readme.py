import pathlib
import re

import pytest
import yaml

from spinnet.config import DEFAULT_THETAS_DEG, parse_config

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


def schema_block():
    """The YAML block that follows "The full schema:"."""
    text = README.read_text(encoding="utf-8")
    return re.search(r"The full schema:\n\n```yaml\n(.*?)^```", text,
                     re.MULTILINE | re.DOTALL).group(1)


def test_readme_schema_parses():
    cfg = parse_config(yaml.safe_load(schema_block()), where="README schema")
    assert None not in (cfg.network, cfg.protocol, cfg.sweep, cfg.phase_scan)  # every section
    assert cfg.disorder.kind == "diagonal" and cfg.disorder.strength == 0.05
    assert cfg.phase_scan.thetas_deg == DEFAULT_THETAS_DEG  # the list shown is the default


def test_readme_has_the_quick_start_and_the_custom_schedule():
    assert len(python_blocks()) == 2


@pytest.mark.parametrize("index", [0, 1], ids=["quick-start", "custom-schedule"])
def test_readme_python_block_runs(index, capsys):
    exec(compile(python_blocks()[index], f"README.md block {index}", "exec"), {})
    printed = capsys.readouterr().out.split()
    if index == 0:  # fidelity of the routed state, then the ensemble's mean and its error
        assert float(printed[0]) == pytest.approx(1.0, abs=1e-9)
        assert 0.9 < float(printed[1]) <= 1.0
    else:  # populations at 2 t_m: the flip at the junction routes the excitation to site 6
        assert float(printed[-1].rstrip("]")) == pytest.approx(1.0, abs=1e-9)
