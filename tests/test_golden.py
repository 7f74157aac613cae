import json

import pytest

import golden


def test_every_command_output_is_byte_identical_to_its_recorded_digest():
    """The workloads, ``oracle`` for every kind and ``verify-bounds`` write what ``golden.json`` records, byte for
    byte: exit codes, data files, stdout and the stderr summary.  A change that moves them on purpose rewrites
    the file (``python -m tests.golden --write``) and declares each moved digest."""
    recorded = json.loads(golden.GOLDEN.read_text())
    platform = {key: recorded[key] for key in golden.platform_key()}
    if platform != golden.platform_key():
        pytest.skip(f"digests recorded with {platform}, not {golden.platform_key()}: the bits depend on the numpy build")
    problems = golden.differences(recorded["cases"])
    assert not problems, "\n".join(problems)
