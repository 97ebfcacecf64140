"""The config tables of `evolve` and `em-check`: mutations of valid configs
generated from the tables, and the README's key reference checked against
them."""
import copy
import json
import math
import re
from pathlib import Path

import pytest

from spin1wave import cli

TABLES = {"evolve": cli._EVOLVE, "em-check": cli._EM_CHECK}
README = Path(__file__).resolve().parents[1] / "README.md"

_GRID8 = {"nx": 8, "ny": 8, "nz": 8, "lx": 2 * math.pi, "ly": 2 * math.pi, "lz": 2 * math.pi}
_SERIES = {"phi_terms": [{"n": [1, 0, 0], "cos": 0.3, "sin": 0.1}],
           "a_terms": [{"component": "z", "n": [0, 1, 0], "cos": 0.1, "sin": 0.2}]}
# Valid 8^3 configs, two steps of dt where they evolve, that between them
# give every key of both tables.  The em-check config carries a Fourier
# series: the random field fails its constrained identity on so small a grid
# (exit 1), and its keys are given by the first evolve config.
CONFIGS = {
    "evolve-random": ("evolve", {
        "grid": _GRID8, "mass": 1.0, "charge": 0.5,
        "initial_condition": {"type": "random_band_limited", "seed": 42, "k_cutoff": 1.0,
                              "transverse": True},
        "evolution": {"t_final": 0.04, "dt": 0.02, "diag_stride": 1},
        "external_field": {"random": {"seed": 11, "amplitude": 0.2, "nmax": 1, "n_terms": 2}},
        "output": {"snapshot": "state.s1wf", "diagnostics": "diag.csv"},
    }),
    "evolve-plane-modes": ("evolve", {
        "grid": _GRID8, "mass": 1.0, "charge": 0.5,
        "initial_condition": {"type": "plane_modes", "modes": [
            {"n": [0, 0, 1], "branch": "-", "polarization": "long", "amplitude": [1.0, 0.5]}]},
        "evolution": {"t_final": 0.04, "dt": 0.02, "diag_stride": 1},
        "external_field": _SERIES,
        "output": {"snapshot": None, "diagnostics": "diag.csv"},
    }),
    "em-check": ("em-check", {"grid": _GRID8, "mass": 1.0, "charge": 0.5, "seed": 3,
                              "trials": 2, "external_field": _SERIES}),
}
# one value of each JSON type
_JSON_VALUES = (True, 1.5, "x", [], {}, None)


def key_paths(node, prefix=""):
    """Dotted path of every key a table names; `[]` stands for each entry of
    a list."""
    if isinstance(node, cli._Choice):
        return set().union(*(key_paths(case, prefix) for case in node.cases.values()))
    if isinstance(node, cli._List):
        return key_paths(node.item, prefix + "[]")
    if isinstance(node, cli._Object):
        paths = set()
        for name, (child, _) in node.keys.items():
            path = f"{prefix}.{name}" if prefix else name
            paths |= {path} | key_paths(child, path)
        return paths
    return set()


def reached(node, value, path=()):
    """(node, path) of every table node that value reaches, walking the table
    beside it, with each choice resolved to the case it picks."""
    if isinstance(node, cli._Choice):
        yield from reached(node.cases[node.pick(value)], value, path)
        return
    yield node, path
    if isinstance(node, cli._Object):
        for name, (child, _) in node.keys.items():
            if name in value:
                yield from reached(child, value[name], (*path, name))
    elif isinstance(node, cli._List):
        for i, item in enumerate(value):
            yield from reached(node.item, item, (*path, i))


def objects(node, value):
    """(object node, path) of every JSON object in value."""
    return [(n, path) for n, path in reached(node, value) if isinstance(n, cli._Object)]


def out_of_range(node, value) -> list:
    """Numbers a _Number node refuses, given its valid value: one step past
    each finite bound, a non-whole value for an integer node, both
    infinities and an integer beyond the doubles."""
    bad = [math.inf, -math.inf, 10**400]
    for bound, side in ((node.low, -1), (node.high, 1)):
        if math.isfinite(bound):
            bad.append(bound + side if node.integer else math.nextafter(bound, side * math.inf))
    if node.integer:
        bad.append(value + 0.5)
    return bad


def json_types(node) -> set:
    """The Python types of the JSON values a node takes."""
    if isinstance(node, cli._Choice):
        return set().union(*map(json_types, node.cases.values()))
    return {cli._Number: {int, float}, cli._List: {list}, cli._Object: {dict}}.get(
        type(node), set(getattr(node, "kinds", ())))


def _at(config, path):
    for part in path:
        config = config[part]
    return config


def _where(path) -> str:
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


def mutants(table, config, kind):
    """(label, mutated config, expected exit code) of each mutation of one
    kind: drop a key, misspell it, give it a value of a JSON type its node
    does not take, add an unknown key to an object, or give a number its
    node refuses."""
    if kind == "out-of-range":
        for node, path in reached(table, config):
            if isinstance(node, cli._Number):
                for value in out_of_range(node, _at(config, path)):
                    mutant = copy.deepcopy(config)
                    _at(mutant, path[:-1])[path[-1]] = value
                    yield f"{_where(path)}={value!r:.20}", mutant, 2
        return
    for node, path in objects(table, config):
        where = _where(path)
        if kind == "unknown-key":
            mutant = copy.deepcopy(config)
            _at(mutant, path)["comment"] = "x"
            yield f"{where}.comment", mutant, 2
            continue
        for name in [n for n in node.keys if n in _at(config, path)]:
            child, default = node.keys[name]
            values = ([v for v in _JSON_VALUES if type(v) not in json_types(child)]
                      if kind == "wrong-type" else [None])
            for value in values:
                mutant = copy.deepcopy(config)
                obj = _at(mutant, path)
                if kind == "drop":
                    del obj[name]
                    yield f"{where}.{name}", mutant, 2 if default is ... else 0
                elif kind == "misspell":
                    assert name + name[-1] not in node.keys
                    obj[name + name[-1]] = obj.pop(name)
                    yield f"{where}.{name}", mutant, 2
                else:
                    obj[name] = value
                    yield f"{where}.{name}={value!r}", mutant, 2


@pytest.mark.parametrize("base", CONFIGS)
@pytest.mark.parametrize("kind", ["drop", "misspell", "wrong-type", "unknown-key",
                                  "out-of-range"])
def test_config_mutations(tmp_path, capsys, monkeypatch, base, kind):
    monkeypatch.chdir(tmp_path)  # the outputs a config names land here
    command, config = CONFIGS[base]
    assert cli.main([command, "--config", _write(tmp_path, config)]) == 0
    capsys.readouterr()
    wrong = []
    for label, mutant, code in mutants(TABLES[command], config, kind):
        got = cli.main([command, "--config", _write(tmp_path, mutant)])
        err = capsys.readouterr().err
        one_error = err.startswith("error:") and err.count("\n") == 1
        if got != code or (code == 2 and not one_error):
            wrong.append(f"{label}: exit {got}, {err!r}")
    assert not wrong, "\n".join(wrong)


def test_config_mutations_reach_every_key():
    reached = set()
    for command, config in CONFIGS.values():
        for node, path in objects(TABLES[command], config):
            prefix = ".".join("[]" if isinstance(p, int) else p for p in path)
            reached |= {f"{prefix}.{name}".replace(".[]", "[]").lstrip(".")
                        for name in node.keys if name in _at(config, path)}
    assert reached == key_paths(cli._EVOLVE) | key_paths(cli._EM_CHECK)


def _write(tmp_path, config) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_readme_names_every_key():
    text = README.read_text()
    missing = [p for p in sorted(key_paths(cli._EVOLVE) | key_paths(cli._EM_CHECK))
               if f"`{p}`" not in text]
    assert not missing


def test_readme_example_config_parses():
    text = README.read_text()
    example = re.search(r"An `evolve` config looks like:\s*```json\n(.*?)```", text, re.S)
    cfg = cli._EVOLVE.parse(json.loads(example.group(1)), "")
    assert cfg["external_field"]["a_terms"][0]["component"] == "z"
