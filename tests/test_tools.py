"""``tools/inprocess_ab.py``: one command timed in two checkouts side by side in one interpreter."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def ab_tool():
    spec = importlib.util.spec_from_file_location("inprocess_ab", ROOT / "tools" / "inprocess_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_stage_line_reads_as_stages_and_sub_stages():
    line = ("searches 121: zero 0, limit 0, newton 121, grid 0; max_iter hits 0; open-cell searches 0; "
            "stage ms grid 5.5 (scan 2.0, model 0.2, newton 2.3), envelope 0.6, render 0.4")
    assert ab_tool().stages(f"a warning\n{line}\n") == {
        "grid": 5.5, "grid.scan": 2.0, "grid.model": 0.2, "grid.newton": 2.3, "envelope": 0.6, "render": 0.4}
    assert ab_tool().stages("no stage line\n") == {}


def test_a_checkout_against_itself_times_both_sides_and_finds_the_outputs_identical(capsys):
    argv = [str(ROOT), str(ROOT), "--rounds", "2", "--warmup", "1", "--",
            "verify-bounds", "--n-values", "5", "--out", "bounds.txt"]
    assert ab_tool().main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out[:2]] == ["parent", "change"]
    assert all("stage ms grid" in line and "grid.newton" in line for line in out[:2])
    assert out[2].startswith("change faster in ") and out[2].endswith(" of 2 rounds, parent in " + out[2].split()[-1])
    assert out[3] == "outputs identical: 1 files, 0 rounds with a different exit code, stdout or summary"
