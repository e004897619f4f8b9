"""The benchmark's generated inputs still load through the package.

``perfbench/workloads.py`` writes each workload's mission and config overlay
as YAML, and the benchmark reads them back with ``load_config`` and
``load_mission``, so a loader change that rejects or alters them would break
only the benchmark.  Oracle: the module, loaded by path, at seeds 0 and 1;
the ``dash_nmpc`` overlay loads as the defaults with ``sim.cruise_air`` 6.0,
every other overlay as the defaults, and every mission as the generator's
own data.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from cyclosim.config import default_config, load_config
from cyclosim.mission import load_mission

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_inputs_load(workload, seed, tmp_path):
    mission_text, overlay_text = workloads.generate(workload, seed)
    mission_path = tmp_path / "mission.yaml"
    config_path = tmp_path / "config.yaml"
    mission_path.write_text(mission_text, encoding="utf-8")
    config_path.write_text(overlay_text, encoding="utf-8")

    base = default_config()
    expected = base
    if workload == "dash_nmpc":
        expected = replace(base, sim=replace(base.sim, cruise_air=6.0))
    assert load_config(config_path) == expected

    data, _overlay = workloads.GENERATORS[workload](seed)
    mission = load_mission(mission_path)
    assert list(mission.start) == data["start"]
    assert [(s.medium.value, s.action.value, list(s.target), s.hold)
            for s in mission.segments] == [
        (s["medium"], s["action"], s["target"], s["hold"]) for s in data["segments"]]
