"""Engine mechanics: suppressions, rule selection, the rule registry."""

import re
from pathlib import Path

import pytest

from repro.analysis import (
    Engine,
    Finding,
    all_project_rules,
    all_rules,
    check_source,
)
from repro.analysis.engine import module_parts_for

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Every shipped rule id; a rule only joins (or leaves) this set together
#: with its docs entry and the suppressions naming it.
KEPT_RULE_IDS = {
    "DET001", "DET002", "DET003", "DET004",
    "UNIT001", "UNIT002", "UNIT003", "UNIT004", "UNIT005",
    "COR001", "COR002", "COR003", "COR004", "COR005",
    "OBS001", "OBS002", "OBS004",
    "ROB001", "ROB002",
    "RES001", "RES003",
}

#: The rule list of an inline noqa comment.
_NOQA_LIST_RE = re.compile(r"repro:\s*noqa\[([^\]]*)\]")

WALL_CLOCK_SRC = """\
import time

def now():
    return time.time()
"""


def test_finding_renders_with_anchor():
    f = Finding("DET001", "src/x.py", 4, 12, "no wall clock")
    assert f.anchor() == "src/x.py:4:12"
    assert f.render() == "src/x.py:4:12: DET001 no wall clock"


def test_inline_noqa_with_rule_suppresses():
    src = WALL_CLOCK_SRC.replace(
        "return time.time()",
        "return time.time()  # repro: noqa[DET001] host calibration",
    )
    assert check_source(src, module="repro.simcore.clocksource") == []


def test_inline_noqa_bare_suppresses_everything():
    src = WALL_CLOCK_SRC.replace(
        "return time.time()", "return time.time()  # repro: noqa"
    )
    assert check_source(src, module="repro.simcore.clocksource") == []


def test_noqa_for_other_rule_does_not_suppress():
    src = WALL_CLOCK_SRC.replace(
        "return time.time()", "return time.time()  # repro: noqa[COR001]"
    )
    findings = check_source(src, module="repro.simcore.clocksource")
    assert [f.rule for f in findings] == ["DET001"]


def test_noqa_multi_rule_list_suppresses_each_listed_rule():
    src = (
        "import os, time\n"  # COR002 (multi-import) + COR004 (os unused)
        "\n\n"
        "def now():\n"
        "    return time.time()\n"
    ).replace(
        "import os, time",
        "import os, time  # repro: noqa[COR002, COR004]",
    )
    findings = check_source(src, module="repro.simcore.clocksource")
    assert [f.rule for f in findings] == ["DET001"]


def test_noqa_multi_rule_list_leaves_unlisted_rule_on_same_line():
    # The line produces COR002 and COR004; only COR002 is listed, so
    # COR004 must survive.
    src = (
        "import os, time  # repro: noqa[COR002]\n"
        "\n\n"
        "def _now():\n"
        "    return time.time()  # repro: noqa[DET001]\n"
    )
    findings = check_source(src, module="repro.simcore.clocksource")
    assert [f.rule for f in findings] == ["COR004"]


@pytest.mark.parametrize("comment", [
    "# repro: noqa[DET001",      # unclosed bracket
    "# repro: noqa[]",           # empty rule list
    "# repro: noqa[,]",          # separators only
    "# repro: noqa[DET001,,COR001]",  # doubled separator
])
def test_malformed_noqa_warns_and_suppresses_nothing(tmp_path, comment):
    target = tmp_path / "repro" / "simcore" / "clk.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        WALL_CLOCK_SRC.replace(
            "return time.time()", f"return time.time()  {comment}"
        )
    )
    result = Engine(select=["DET001"]).check_paths([target])
    assert [f.rule for f in result.findings] == ["DET001"]
    assert len(result.warnings) == 1
    assert "malformed noqa" in result.warnings[0]
    assert "clk.py:4" in result.warnings[0]


def test_malformed_noqa_warning_reaches_human_and_json_output(tmp_path):
    from repro.analysis.reporting import render_human, render_json

    target = tmp_path / "repro" / "simcore" / "clk.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        WALL_CLOCK_SRC.replace(
            "return time.time()", "return time.time()  # repro: noqa[]"
        )
    )
    result = Engine(select=["DET001"]).check_paths([target])
    assert "warning:" in render_human(result)
    import json

    assert json.loads(render_json(result))["warnings"]


def test_noqa_on_different_line_does_not_suppress():
    src = "# repro: noqa[DET001]\n" + WALL_CLOCK_SRC
    findings = check_source(src, module="repro.simcore.clocksource")
    assert [f.rule for f in findings] == ["DET001"]


def test_select_runs_only_chosen_rules():
    src = "import os\n" + WALL_CLOCK_SRC  # os unused -> COR004
    only_det = check_source(
        src, module="repro.simcore.clocksource", select=["DET001"]
    )
    assert [f.rule for f in only_det] == ["DET001"]


def test_ignore_drops_rules():
    src = "import os\n" + WALL_CLOCK_SRC
    findings = check_source(
        src, module="repro.simcore.clocksource", ignore=["COR004"]
    )
    assert [f.rule for f in findings] == ["DET001"]


def test_unknown_rule_ids_rejected():
    with pytest.raises(ValueError, match="NOPE999"):
        Engine(select=["NOPE999"])
    with pytest.raises(ValueError, match="NOPE999"):
        Engine(ignore=["NOPE999"])


def test_module_parts_inferred_from_repro_directory():
    assert module_parts_for(Path("src/repro/ntp/wire.py")) == (
        "repro", "ntp", "wire",
    )
    assert module_parts_for(Path("src/repro/simcore/__init__.py")) == (
        "repro", "simcore",
    )
    assert module_parts_for(Path("scratch/tool.py")) == ("tool",)


def test_check_paths_records_unparsable_files(tmp_path):
    good = tmp_path / "repro" / "simcore" / "ok.py"
    good.parent.mkdir(parents=True)
    good.write_text("import time\n\n\ndef f():\n    return time.time()\n")
    bad = tmp_path / "repro" / "simcore" / "broken.py"
    bad.write_text("def :(\n")
    result = Engine().check_paths([tmp_path])
    assert result.files_checked == 1
    assert [f.rule for f in result.findings] == ["DET001"]
    assert len(result.errors) == 1
    assert "broken.py" in result.errors[0]


def test_check_paths_accepts_single_file(tmp_path):
    target = tmp_path / "repro" / "clock" / "osc.py"
    target.parent.mkdir(parents=True)
    target.write_text(WALL_CLOCK_SRC)
    result = Engine().check_paths([target])
    assert [f.rule for f in result.findings] == ["DET001"]


def test_registry_and_suppressions_name_only_kept_rules():
    """No suppression may name a rule that is not registered.

    A noqa for a removed rule suppresses nothing and only misleads the
    reader, so removing a rule must take its suppressions along.
    """
    registered = set(all_rules()) | set(all_project_rules())
    assert registered == KEPT_RULE_IDS
    stale = []
    for root in ("src", "tests", "scripts"):
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            for lineno, line in enumerate(text.splitlines(), start=1):
                for listed in _NOQA_LIST_RE.findall(line):
                    ids = [r.strip().upper() for r in listed.split(",")]
                    if path.name == "test_engine.py" and not all(ids):
                        continue  # the deliberately malformed fixtures
                    stale.extend(
                        f"{path.relative_to(REPO_ROOT)}:{lineno}: {rule}"
                        for rule in ids if rule not in registered
                    )
    assert stale == []
