"""End-to-end command-line tests via main(argv)."""

import json
import signal

import pytest

from hyperalg import ddhyper, functors, fuzzy, hyper, io, matroid, ordgrp
from hyperalg.cli import _print_report, build_parser, main


def test_check_builtin_hyperring(capsys):
    assert main(["check", "signs"]) == 0
    out = capsys.readouterr().out
    assert "hyperring axioms: pass" in out


def test_check_builtin_fuzzy(capsys):
    assert main(["check", "signfuzzy"]) == 0
    assert "fuzzy ring axioms: pass" in capsys.readouterr().out


def test_check_file(tmp_path, capsys):
    p = tmp_path / "k.json"
    io.save_structure(hyper.krasner(), p)
    assert main(["check", str(p), "--kind", "hyperring"]) == 0


def test_check_failing_structure(tmp_path, capsys):
    # shrinking 1 + (-1) to {0} breaks associativity; exit code 1
    s = hyper.signs()
    add = [list(r) for r in s.add]
    add[1][2] = add[2][1] = 1
    bad = hyper.FiniteHyperring(
        3, tuple(map(tuple, add)), s.mul, s.neg, False, "broken"
    )
    p = tmp_path / "bad.json"
    io.save_structure(bad, p)
    assert main(["check", str(p)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_malformed_file_exits_2(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text('{"schema_version": "1", "kind": "nope"}')
    assert main(["check", str(p)]) == 2


@pytest.mark.parametrize(
    "kind,path,value",
    [
        ("demifield", ("add", 0, 0), 9),  # index outside the family
        ("demifield", ("embedding",), [0, 1, 99]),
        ("demifield", ("mul", 1), [0, 1]),  # ragged row
        ("zariski", ("points",), 5),
        ("zariski", ("functions",), 3),
        ("fuzzyring", ("k0",), [True, 2]),  # a JSON bool is not an index
        ("fuzzyring", ("epsilon",), 1.0),
        ("zariski", ("functions", 0, 0, "upper"), True),  # a bool is not an integer
        ("gp", (), {"ground_size": True, "rank": 1, "values": [1]}),
        ("gp", ("values",), [True, 0]),
    ],
)
def test_malformed_structure_exits_2(kind, path, value, tmp_path, capsys):
    s0, d0 = ordgrp.singleton(0), ordgrp.down(0)
    valid = {
        "demifield": ddhyper.F1(hyper.signs()),
        "zariski": ordgrp.generate_zariski(("p", "q"), [(s0, d0), (d0, s0)]),
        "fuzzyring": fuzzy.krasner_fuzzy(),
        "gp": matroid.GPFunction(2, 1, (1, 1), hyper.signs()),
    }
    d = io.structure_to_dict(valid[kind])
    if path:
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    else:
        d.update(value)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(d))
    assert main(["check", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def _bad_cell(n):
    """Values that are no index of an n-element carrier."""
    return {"bool": True, "negative": -1, "n": n, "float": 1.0, "nested": [1]}


@pytest.mark.parametrize("kind", ["fuzzyring", "demifield"])
@pytest.mark.parametrize("table", ["add", "mul"])
@pytest.mark.parametrize(
    "defect", ["bool", "negative", "n", "float", "nested", "short", "empty"]
)
def test_malformed_index_table_exits_2(kind, table, defect, tmp_path, capsys):
    valid = {"fuzzyring": fuzzy.sign_fuzzy(), "demifield": ddhyper.F1(hyper.signs())}
    d = io.structure_to_dict(valid[kind])
    rows = d[table]
    if defect == "short":
        rows[1].pop()
    elif defect == "empty":
        d[table] = []
    else:
        rows[1][len(rows) - 1] = _bad_cell(len(rows))[defect]
    with pytest.raises(io.StructureError):
        io.structure_from_dict(json.loads(json.dumps(d)))
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(d))
    assert main(["check", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {table} must be an n x n table of indices\n"


@pytest.mark.parametrize("value", ["no", "false", 1, 0, None])
def test_partial_must_be_a_json_boolean(value, tmp_path, capsys):
    # a truthy non-boolean once loaded a partial hyperring, and F of it failed
    d = io.structure_to_dict(hyper.signs())
    d["partial"] = value
    p = tmp_path / "s.json"
    p.write_text(json.dumps(d))
    out = tmp_path / "f.json"
    assert main(["construct", "F", "--in", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: partial must be true or false\n")
    assert not out.exists()


def _named(kind):
    """A structure dict of `kind` and the dict inside it that holds a name."""
    if kind == "gp":
        d = io.structure_to_dict(matroid.GPFunction(2, 1, (1, 1), hyper.signs()))
        return d, d["coefficient"]
    if kind == "demifield":
        d = io.structure_to_dict(ddhyper.F1(hyper.signs()))
        return d, d["hyperfield"]
    d = io.structure_to_dict(hyper.signs() if kind == "hyperring" else fuzzy.sign_fuzzy())
    return d, d


@pytest.mark.parametrize("kind", ["hyperring", "fuzzyring", "gp", "demifield"])
@pytest.mark.parametrize("value", [5, None, ["signs"]])
def test_name_must_be_a_string(kind, value, tmp_path, capsys):
    d, named = _named(kind)
    named["name"] = value
    p = tmp_path / "s.json"
    p.write_text(json.dumps(d))
    assert main(["check", str(p)]) == 2
    assert capsys.readouterr() == ("", "error: name must be a string\n")


@pytest.mark.parametrize("ring", [hyper.signs(), functors.unit_field_z()])
def test_boolean_partial_files_are_unchanged(ring, tmp_path, capsys):
    p = tmp_path / "s.json"
    io.save_structure(ring, p)
    text = p.read_text()
    assert f'"partial": {"true" if ring.partial else "false"}' in text
    assert main(["check", str(p)]) == 0
    io.save_structure(io.load_structure(p), p)
    assert p.read_text() == text
    # F of a partial hyperring is no fuzzy ring (FR1 fails at the empty set)
    out = tmp_path / "f.json"
    rc = main(["construct", "F", "--in", str(p), "--out", str(out)])
    assert rc == (1 if ring.partial else 0)


def test_missing_file_exits_2(capsys):
    assert main(["check", "/no/such/file.json"]) == 2


def test_construct_F(tmp_path, capsys):
    out = tmp_path / "fk.json"
    assert main(["construct", "F", "--in", "krasner", "--out", str(out)]) == 0
    k = io.load_structure(out, "fuzzyring")
    kf = fuzzy.krasner_fuzzy()
    assert k.add == kf.add and k.k0 == kf.k0


def test_construct_quotient(tmp_path, capsys):
    out = tmp_path / "q.json"
    rc = main(
        ["construct", "quotient", "--in", "gf5", "--units", "1,4", "--out", str(out)]
    )
    assert rc == 0
    q = io.load_structure(out, "hyperring")
    assert hyper.check_hyperfield(q).passed
    assert q.n == 3


def test_construct_khef(tmp_path):
    out = tmp_path / "khef.json"
    assert main(["construct", "KHef", "--in", "klein4", "--out", str(out)]) == 0
    h = io.load_structure(out, "hyperring")
    assert h.n == 7


def test_construct_unitfield_z(tmp_path, capsys):
    out = tmp_path / "uz.json"
    assert main(["construct", "unitfield", "--in", "z", "--out", str(out)]) == 0
    h = io.load_structure(out, "hyperring")
    assert h.partial
    assert h.add[1][1] == 0  # 1 + 1 is the empty hypersum


def test_construct_F1(tmp_path):
    out = tmp_path / "f1.json"
    assert main(["construct", "F1", "--in", "signs", "--out", str(out)]) == 0
    p = io.load_structure(out, "demifield")
    assert len(p.family) == 4
    assert main(["check", str(out)]) == 0


def test_morphisms_hyperring(capsys):
    assert main(["morphisms", "signs", "krasner"]) == 0
    assert "1 homomorphisms" in capsys.readouterr().out


def test_morphisms_fuzzy_weak(capsys):
    assert main(["morphisms", "signfuzzy", "krasnerfuzzy", "--kind", "fuzzy-weak"]) == 0
    assert "1 weak morphisms" in capsys.readouterr().out


def test_morphisms_fuzzy_strong(capsys):
    rc = main(
        ["morphisms", "krasnerfuzzy", "krasnerfuzzy", "--kind", "fuzzy-strong"]
    )
    assert rc == 0
    assert "strong morphisms" in capsys.readouterr().out


def test_morphisms_fuzzy_strong_all_decided(capsys):
    argv = ["morphisms", "signfuzzy", "signfuzzy", "--kind", "fuzzy-strong"]
    assert main(argv) == 0
    # the identity extends; -1 -> 1 is not weak (1 + (-1) is null, 1 + 1 not)
    assert capsys.readouterr().out == "1 strong morphisms (of 2 unit maps)\n"


def test_morphisms_fuzzy_strong_reports_undecided(monkeypatch, capsys):
    # an exhausted budget is not "not strong": the count says so
    monkeypatch.setattr(
        functors,
        "strong_extension_search",
        lambda k, l, unit_map: functors.ExtensionSearchResult("unknown"),
    )
    argv = ["morphisms", "signfuzzy", "signfuzzy", "--kind", "fuzzy-strong"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "0 strong morphisms (of 2 unit maps)\n"
        "2 unit maps undecided: the search ran out of budget\n"
    )


def _fuzzy_runs(path):
    """check, both fuzzy morphism kinds both ways and iso, against signfuzzy."""
    runs = [["check", path], ["iso", path, "signfuzzy", "--kind", "fuzzy-weak"]]
    for kind in ("fuzzy-weak", "fuzzy-strong"):
        runs += [
            ["morphisms", path, "signfuzzy", "--kind", kind],
            ["morphisms", "signfuzzy", path, "--kind", kind],
        ]
    return runs


def test_fuzzy_commands_take_one_entry_changes(signfuzzy_changes, tmp_path, capsys):
    # before the searches checked FR0-FR7 on their inputs, 19 of these runs
    # ended in a KeyError or a TypeError, which Python reports with exit 1
    codes = []
    for i, k in enumerate(signfuzzy_changes):
        path = str(tmp_path / f"{i}.json")
        io.save_structure(k, path)
        codes += [main(argv) for argv in _fuzzy_runs(path)]
    capsys.readouterr()
    assert len(signfuzzy_changes) == 85
    assert set(codes) <= {0, 1, 2}


def test_fuzzy_morphisms_refuse_a_table_that_is_not_a_fuzzy_ring(
    f_signs_mul_1_2_zero, tmp_path, capsys
):
    path = str(tmp_path / "k.json")
    io.save_structure(f_signs_mul_1_2_zero, path)
    for argv in _fuzzy_runs(path):
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "FAIL\n  violated FR0-mul-commutative at (1, 2)\n" in out
        if argv[0] != "check":
            assert out.startswith(f"fuzzy ring axioms of {path}: FAIL\n")


def test_matroids_with_oracle(capsys):
    assert main(["matroids", "--coeff", "krasner", "-n", "4", "-r", "2", "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "36 Grassmann-Pluecker functions" in out
    assert "oracle agreement: pass" in out


@pytest.mark.parametrize("flag", ["-n", "-r"])
def test_matroids_rejects_negative_sizes(flag, capsys):
    sizes = {"-n": "2", "-r": "1"}
    sizes[flag] = "-1"
    argv = ["matroids", "--coeff", "signs", "-n", sizes["-n"], "-r", sizes["-r"]]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {flag} must be non-negative, got -1\n"


def test_matroids_node_cap_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(matroid, "ENUM_NODE_CAP", 100)
    assert main(["matroids", "--coeff", "signs", "-n", "4", "-r", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert "search node cap ENUM_NODE_CAP = 100" in err


def test_iso_found(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["construct", "G", "--in", "signfuzzy", "--out", str(out)]) == 0
    assert main(["iso", str(out), "signs"]) == 0
    assert "isomorphism:" in capsys.readouterr().out


def test_iso_not_found(capsys):
    assert main(["iso", "krasner", "signs"]) == 1
    assert "no isomorphism" in capsys.readouterr().out


def test_triangle_demo(capsys):
    assert main(["triangle-demo"]) == 0
    out = capsys.readouterr().out
    assert "[1, 5]" in out and "[1, 25]" in out and "[0, 25]" in out
    assert "not equal" in out


def test_ordgrp_demo(capsys):
    assert main(["ordgrp-demo", "--window", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count(": pass") == 4
    for b in (2, 4):
        assert main(["ordgrp-demo", "--window", str(b)]) == 0
        assert capsys.readouterr().out == (
            f"hypergroup laws on [-{b},{b}]: pass\n"
            f"double distributivity on [-{b},{b}]: pass\n"
            f"fuzzy ring laws on [-{b},{b}]: pass\n"
            f"reduced powerset ring matches symbolic ring on [-{b},{b}]: pass\n"
        )


@pytest.mark.parametrize("window", ["0", "-1"])
def test_ordgrp_demo_rejects_window_below_1(window, capsys):
    assert main(["ordgrp-demo", "--window", window]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: window must be >= 1\n"


def test_rank_0_gp_checks(tmp_path, capsys):
    p = tmp_path / "gp0.json"
    io.save_structure(matroid.GPFunction(2, 0, (1,), hyper.signs()), p)
    assert main(["check", str(p)]) == 0
    assert capsys.readouterr().out.startswith("exchange relations: pass\n")
    argv = ["matroids", "--coeff", "signs", "-n", "2", "-r", "0", "--oracle"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "2 Grassmann-Pluecker functions" in out
    assert "oracle agreement: pass" in out


def test_oversized_gp_plan_exits_2(tmp_path, capsys):
    # n = 12, r = 6 has 792 * 792 exchange relations (4.4 M terms): refused
    # from the sizes before any relation is built
    p = tmp_path / "gp12.json"
    io.save_structure(matroid.GPFunction(12, 6, (1,) * 924, hyper.signs()), p)

    def timed_out(signum, frame):
        raise TimeoutError("the plan size was not refused at once")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(10)
    try:
        assert main(["check", str(p)]) == 2
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: rank 6 on 12 elements has 627264 exchange relations, over 20000\n"
    )


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["check"])  # missing path
    assert e.value.code == 2


@pytest.mark.parametrize(
    "argv,found",
    [
        (["morphisms", "signs", "signfuzzy", "--kind", "fuzzy-weak"], "signs"),
        (["morphisms", "signfuzzy", "signs", "--kind", "fuzzy-strong"], "signs"),
        (["iso", "signfuzzy", "signs", "--kind", "fuzzy-weak"], "signs"),
        (["morphisms", "signfuzzy", "signs"], "signfuzzy"),
        (["iso", "signfuzzy", "signs"], "signfuzzy"),
    ],
)
def test_structure_of_wrong_kind_exits_2(argv, found, capsys):
    # each argument is loaded as the kind --kind implies, a builtin name too
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    expected, other = (
        ("hyperring", "fuzzyring") if found == "signfuzzy" else ("fuzzyring", "hyperring")
    )
    assert err == f"error: expected kind {expected}, found {other} {found!r}\n"


def test_wrong_kind_file_exits_2(tmp_path, capsys):
    p = tmp_path / "s.json"
    io.save_structure(hyper.signs(), p)
    assert main(["morphisms", str(p), "signfuzzy", "--kind", "fuzzy-weak"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: expected kind fuzzyring, found hyperring\n"


def _run(argv, capsys):
    """Exit code (or SystemExit code), stdout without the elapsed line, and
    stderr of main(argv)."""
    try:
        rc = main(argv)
    except SystemExit as e:
        rc = ("exit", e.code)
    out, err = capsys.readouterr()
    out = [line for line in out.splitlines() if not line.startswith("elapsed ")]
    return rc, out, err


def test_parser_is_built_once(capsys):
    assert build_parser() is build_parser()
    # a default set by one parse does not leak into the next
    fresh = build_parser.__wrapped__
    for argv in (
        ["morphisms", "signs", "krasner", "--strict"],
        ["morphisms", "signs", "krasner"],
        ["check", "signs"],
        ["construct", "quotient", "--in", "gf5", "--units", "1,4", "--out", "q.json"],
        ["construct", "F", "--in", "krasner", "--out", "f.json"],
    ):
        assert vars(build_parser().parse_args(argv)) == vars(fresh().parse_args(argv))


def test_consecutive_calls_match_fresh_parsers(capsys):
    calls = [
        ["check", "signs"],
        ["morphisms", "signs", "krasner"],
        ["check"],  # usage error after good calls
        ["iso", "krasner", "signs"],
        ["morphisms"],
        ["check", "signfuzzy"],
    ]
    reused = [_run(argv, capsys) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(_run(argv, capsys))
    build_parser.cache_clear()
    assert reused == fresh
    assert [rc for rc, _, _ in reused] == [0, 0, ("exit", 2), 1, ("exit", 2), 0]
    assert "the following arguments are required: path" in reused[2][2]


def test_report_names_hidden_violations(tmp_path, capsys):
    # GF(13) as a fuzzy ring with 2 + 3 set to 0 in one direction: besides
    # the FR0 laws, a unit u breaks FR2 at (2, 3) unless u*2 + u*3 is 0 too
    k = fuzzy.ring_as_fuzzy(hyper.galois_field(13))
    add = [list(row) for row in k.add]
    add[2][3] = 0
    p = tmp_path / "k.json"
    io.save_structure(fuzzy.make_fuzzy_ring(add, k.mul, k.k0), p)
    violations = fuzzy.check_fuzzy_axioms(io.load_structure(p)).violations
    assert len(violations) > 10
    assert main(["check", str(p)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "fuzzy ring axioms: FAIL"
    assert lines[1:11] == [f"  violated {a} at {w}" for a, w in violations[:10]]
    assert lines[11] == f"  ... and {len(violations) - 10} more violations"
    assert lines[12].startswith("elapsed ") and len(lines) == 13


@pytest.mark.parametrize("count", [10, 11])
def test_report_cut_after_10(count, capsys):
    rep = hyper.AxiomReport(False, tuple(("law", (i,)) for i in range(count)))
    assert not _print_report("laws", rep)
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:11] == [f"  violated law at ({i},)" for i in range(10)]
    assert lines[11:] == (["  ... and 1 more violations"] if count == 11 else [])
