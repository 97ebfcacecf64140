"""The command line's outputs against tests/golden.json: every entry rerun in
process, its exit code and the sha256 of its stdout, stderr and files
compared.  The manifest is written by tests/make_golden.py; on another
numpy version or machine the bytes may differ by FFT roundoff, so the test
fails there and names that command."""
import json

import pytest

import make_golden

with open(make_golden.MANIFEST) as fh:
    MANIFEST = json.load(fh)


def check_platform():
    here = make_golden.platform_id()
    assert MANIFEST["platform"] == here, (
        f"tests/golden.json was recorded on {MANIFEST['platform']}, this is {here}: "
        f"regenerate it with `{make_golden.REGENERATE}` and review the moved digests")


def check_demo_stdout(name: str, stdout: str):
    """The stdout of a demo run against its digest in the manifest."""
    check_platform()
    assert make_golden.sha256(stdout.encode()) == MANIFEST["demos"][name], (
        f"{name}'s stdout moved; if that is intended, regenerate with "
        f"`{make_golden.REGENERATE}`")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Every entry run in order in one directory, by name."""
    directory = tmp_path_factory.mktemp("golden")
    return {e["name"]: make_golden.run_entry(e["argv"], e["config"], list(e["files"]),
                                             str(directory))
            for e in MANIFEST["entries"]}


def test_manifest_covers_every_entry_and_demo():
    assert [e["name"] for e in MANIFEST["entries"]] == [e[0] for e in make_golden.ENTRIES]
    assert sorted(MANIFEST["demos"]) == make_golden.DEMOS


@pytest.mark.parametrize("entry", MANIFEST["entries"], ids=lambda e: e["name"])
def test_cli_output_matches_manifest(entry, outputs):
    check_platform()
    got = outputs[entry["name"]]
    want = {k: entry[k] for k in ("exit", "stdout", "stderr", "files")}
    assert got == want, (f"{entry['name']} ({' '.join(entry['argv'])}) moved; if that is "
                         f"intended, regenerate with `{make_golden.REGENERATE}`")


def test_make_golden_names_what_moved():
    new = json.loads(json.dumps(MANIFEST))
    entries = {e["name"]: e for e in new["entries"]}
    was_exit = entries["verify-algebra"]["exit"]
    entries["verify-algebra"]["exit"] = was_exit + 2
    entries["dispersion-json"]["stdout"] = "0" * 64
    entries["evolve-free-16"]["files"]["free.csv"] = "0" * 64
    new["demos"][make_golden.DEMOS[0]] = "0" * 64
    assert make_golden.moved(MANIFEST, MANIFEST) == []
    assert make_golden.moved(MANIFEST, new) == [
        f"verify-algebra: exit {was_exit} -> {was_exit + 2}", "dispersion-json: stdout",
        "evolve-free-16: free.csv", f"demo {make_golden.DEMOS[0]}: stdout"]
