import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spochar.charformulas as charformulas
import spochar.cli as cli
from spochar.laurent import LaurentPoly, NotDivisible


def run(capsys, *argv, cache=None, expect=0):
    args = list(argv)
    if cache is not None:
        args += ["--cache-dir", str(cache)]
    code = cli.main(args)
    out = capsys.readouterr().out
    assert code == expect, out
    return out


def test_kac_json_vdim(capsys, tmp_path):
    out = run(capsys, "kac", "--algebra", "2|3", "--weight", "1d1", "--format", "json", cache=tmp_path)
    payload = json.loads(out)
    assert payload["vdim"] == 4
    assert payload["kind"] == "kac"
    ch = LaurentPoly.from_json_dict(payload["character"])
    assert ch.evaluate_at_one() == 4


def test_decompose_three_factors(capsys, tmp_path):
    out = run(capsys, "decompose", "--algebra", "2|3", "--kac", "2d1+1e1", "--basis", "irr",
              "--format", "json", cache=tmp_path)
    payload = json.loads(out)
    assert payload["remainder_zero"] is True
    assert len(payload["factors"]) == 3
    assert {f["weight"]: f["mult"] for f in payload["factors"]} == {"2d1+1e1": 1, "1d1": 1, "0": 1}


def test_dim_irr(capsys, tmp_path):
    out = run(capsys, "dim", "--algebra", "2|3", "--irr", "3d1+2e1", cache=tmp_path)
    assert out.strip().endswith("= 70")


def test_dim_closed_form_flag(capsys, tmp_path):
    classical = run(capsys, "dim", "--algebra", "2|3", "--kac", "1d1", "--closed-form", cache=tmp_path)
    assert classical.strip().endswith("= 4")
    printed = run(capsys, "dim", "--algebra", "2|3", "--kac", "1d1", "--closed-form",
                  "--vdim-denominator", "paper", cache=tmp_path)
    assert printed.strip().endswith("= 2")  # the alternative reading, kept selectable


def test_jt_and_euler(capsys, tmp_path):
    out = run(capsys, "jt", "--algebra", "2|3", "--partition", "2,1", "--format", "json", cache=tmp_path)
    assert json.loads(out)["vdim"] == 35
    out = run(capsys, "euler", "--algebra", "2|4", "--parabolic", "remove=e1+e2",
              "--levi-module", "trivial", "--format", "json", cache=tmp_path)
    assert json.loads(out)["vdim"] == 2


def test_block_and_identities(capsys, tmp_path):
    out = run(capsys, "block", "--algebra", "2|3", "--weight", "1d1", "--other", "0",
              "--format", "json", cache=tmp_path)
    assert json.loads(out)["linked"] is True
    out = run(capsys, "identities", "--n", "1", "--format", "json", cache=tmp_path)
    assert all(json.loads(out)["results"].values())


def test_laplacian_report(capsys, tmp_path):
    out = run(capsys, "laplacian", "--algebra", "4|4", "--degree", "2", "--report",
              "--format", "json", cache=tmp_path)
    payload = json.loads(out)
    assert payload["classification"] == "reducible_with_trivial_submodule"
    assert payload["kernel_dim"] == 31


def test_tensor_table_single_weight(capsys, tmp_path):
    out = run(capsys, "tensor-table", "--algebra", "2|3", "--weight", "2d1+1e1",
              "--format", "json", cache=tmp_path)
    rows = json.loads(out)["rows"]
    assert len(rows) == 1
    assert {f["weight"]: f["mult"] for f in rows[0]["factors"]} == {
        "3d1+1e1": 1, "2d1+2e1": 1, "2d1+1e1": 1,
    }


def test_latex_decomposition(capsys, tmp_path):
    out = run(capsys, "decompose", "--algebra", "2|3", "--kac", "1d1", "--format", "latex", cache=tmp_path)
    assert out.strip() == "[L(\\delta_{1})]-[L(0)]"


def test_cache_hit_is_byte_identical(capsys, tmp_path):
    first = run(capsys, "kac", "--algebra", "2|3", "--weight", "2d1+1e1", "--format", "json", cache=tmp_path)
    files = [f for f in os.listdir(tmp_path) if f.endswith(".out")]
    assert len(files) == 1
    second = run(capsys, "kac", "--algebra", "2|3", "--weight", "2d1+1e1", "--format", "json", cache=tmp_path)
    assert first == second
    # the cached payload is returned verbatim
    with open(os.path.join(tmp_path, files[0]), "rb") as fh:
        assert fh.read().decode() == first


def test_parse_errors_exit_2(capsys, tmp_path):
    assert cli.main(["kac", "--algebra", "nonsense", "--weight", "1d1", "--cache-dir", str(tmp_path)]) == 2
    capsys.readouterr()
    assert cli.main(["jt", "--algebra", "2|3", "--partition", "1,2", "--cache-dir", str(tmp_path)]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_math_failure_exits_3(capsys, tmp_path, monkeypatch):
    def boom(alg, lam):
        raise NotDivisible("forced")

    monkeypatch.setattr(cli, "kac_character", boom)
    assert cli.main(["kac", "--algebra", "2|3", "--weight", "1d1", "--no-cache"]) == 3


def test_batch_runs_commands_in_order(capsys, tmp_path):
    script = tmp_path / "cmds.txt"
    script.write_text(
        "dim --algebra 2|3 --irr 1d1 --no-cache\n"
        "# a comment\n"
        "dim --algebra 2|3 --irr 2d1+1e1 --no-cache\n"
    )
    out = run(capsys, "batch", "--file", str(script))
    lines = [l for l in out.splitlines() if l.strip()]
    assert lines[0].startswith("$ dim")
    assert "= 5" in out and "= 30" in out
    assert out.index("= 5") < out.index("= 30")


def test_batch_reports_a_bad_line_in_its_slot_and_carries_on(capsys, tmp_path, monkeypatch):
    script = tmp_path / "cmds.txt"
    script.write_text(
        "dim --algebra 2|3 --irr 1d1 --no-cache\n"
        "dim --algebra 2|3 --irr 1x1 --no-cache\n"
        "dim --algebra '2|3' --no-cache --bogus\n"
        "kac --algebra 2|3 --no-cache\n"
        "dim --algebra 2|3 --irr 2d1+1e1 --no-cache\n"
    )
    out = run(capsys, "batch", "--file", str(script), expect=2)
    slots = out.split("$ ")[1:]
    assert len(slots) == 5
    assert slots[0].rstrip().endswith("= 5") and slots[4].rstrip().endswith("= 30")
    assert "[exit 2] error: cannot parse weight" in slots[1]
    assert "[exit 2] error:" in slots[2] and "--bogus" in slots[2]
    assert "[exit 2] error:" in slots[3] and "--weight" in slots[3]

    def boom(*a, **k):
        raise NotDivisible("forced")

    monkeypatch.setattr(cli, "kac_character", boom)
    script.write_text("kac --algebra 2|3 --weight 1d1 --no-cache\ndim --algebra 2|3 --irr 1x1 --no-cache\n")
    out = run(capsys, "batch", "--file", str(script), expect=3)  # the largest line code
    assert "[exit 3] mathematical assertion failed: forced" in out and "[exit 2]" in out


def test_conjecture_check_command(capsys, tmp_path):
    out = run(capsys, "conjecture-check", "--algebra", "2|3", "--bound", "3",
              "--format", "json", cache=tmp_path)
    payload = json.loads(out)
    assert payload["linearly_independent"] is True
    assert payload["euler_characters"] == 7


def test_reproduce_subset(capsys, tmp_path):
    out = run(capsys, "reproduce-paper", "--criteria", "5,6", cache=tmp_path)
    assert "[PASS] criterion 5" in out
    assert "[PASS] criterion 6" in out
    assert "2/2 criteria passed" in out


def test_euler_on_spo22(capsys, tmp_path):
    out = run(capsys, "euler", "--algebra", "2|2", "--parabolic", "remove=d1-e1", "--levi-module", "trivial",
              cache=tmp_path)
    assert "vdim = 1" in out


def test_laplacian_takes_kernel_and_singular_vectors_from_one_pass(capsys, tmp_path):
    from spochar.rootdata import Algebra
    from spochar.superspace import format_monomial, kernel_basis, singular_vectors

    alg = Algebra.parse("4|3")
    lines = [f"ker(Delta) on degree 4 of {alg}: dim {len(kernel_basis(alg, 4))}"]
    vectors = []
    for w, vs in singular_vectors(alg, 4).items():
        for v in vs:
            terms = " + ".join(f"{c}*{format_monomial(alg, t)}" for t, c in sorted(v.terms.items()))
            lines.append(f"singular vector at {w.format()}: {terms}")
            vectors.append({"weight": w.format(), "vector": terms})
    out = run(capsys, "laplacian", "--algebra", "4|3", "--degree", "4", cache=tmp_path / "text")
    assert out == "\n".join(lines) + "\n"
    out = run(capsys, "laplacian", "--algebra", "4|3", "--degree", "4", "--format", "json", cache=tmp_path / "json")
    payload = json.loads(out)
    assert payload["kernel_dim"] == len(kernel_basis(alg, 4))
    assert payload["singular_vectors"] == vectors


def test_oversized_laplacian_exits_2(capsys, tmp_path):
    code = cli.main(["laplacian", "--algebra", "8|3", "--degree", "9", "--bound", "100", "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err = captured.err.strip()
    assert "\n" not in err and err.startswith("error: dim = ") and "exceeds bound 100" in err


# l = 0 degrees above the middle one: the kernel is 0 though dim(k) - dim(k-2)
# is negative, and the command must say so rather than fail its kernel check
L0_ZERO_KERNELS = [("4|0", 4, ()), ("4|0", 4, ("--report",)), ("2|0", 3, ("--report",)), ("6|0", 5, ())]


@pytest.mark.parametrize("algebra,degree,flags", L0_ZERO_KERNELS)
def test_l0_laplacian_above_the_middle_degree_exits_0(capsys, tmp_path, algebra, degree, flags):
    argv = ["laplacian", "--algebra", algebra, "--degree", str(degree), *flags]
    out = run(capsys, *argv, cache=tmp_path / "text")
    assert out.startswith(f"ker(Delta) on degree {degree} of spo({algebra}): dim 0\n")
    out = run(capsys, *argv, "--format", "json", cache=tmp_path / "json")
    assert json.loads(out)["kernel_dim"] == 0


def test_batch_gives_an_l0_zero_kernel_line_code_0_in_its_slot(capsys, tmp_path):
    script = tmp_path / "cmds.txt"
    script.write_text(
        "kac --algebra 2|3 --weight 1x1 --no-cache\n"
        "laplacian --algebra 4|0 --degree 4 --report --no-cache\n"
        "dim --algebra 2|3 --irr 1d1 --no-cache\n"
    )
    out = run(capsys, "batch", "--file", str(script), expect=2)
    assert _slot_codes(out) == [2, 0, 0]
    slot = out.split("$ ")[2]
    assert "ker(Delta) on degree 4 of spo(4|0): dim 0" in slot and "classification: zero" in slot


def test_oversized_weyl_group_exits_2(capsys, tmp_path):
    code = cli.main(["kac", "--algebra", "10|10", "--weight", "1d1", "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: |W| = 7372800 for spo(10|10) exceeds the limit 100000\n"


def test_oversized_euler_is_refused_before_the_numerator_is_expanded(capsys, tmp_path):
    # the Borel numerator of spo(8|9) has 2^40 products of odd factors; the
    # group is fetched first, so the refusal comes at once
    start = time.perf_counter()
    code = cli.main(["euler", "--algebra", "8|9", "--parabolic", "borel", "--levi-module", "trivial",
                     "--cache-dir", str(tmp_path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: |W| = 147456 for spo(8|9) exceeds the limit 100000\n"
    assert elapsed < 1


def test_oversized_euler_numerator_exits_2(capsys, tmp_path, monkeypatch):
    # the Borel numerator of spo(6|7) grows to 70592 terms; with the limit
    # lowered it is refused after the first factor that takes it past
    monkeypatch.setattr(charformulas, "EULER_NUMERATOR_LIMIT", 10_000)
    code = cli.main(["euler", "--algebra", "6|7", "--parabolic", "borel", "--levi-module", "trivial",
                     "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    hit = re.fullmatch(r"error: the Euler numerator of parabolic\(spo\(6\|7\), remove=[^)]*\) "
                       r"has (\d+) terms, above the limit 10000\n", captured.err)
    assert hit and 10_000 < int(hit.group(1)) <= 20_000  # one factor at most doubles it


OVERSIZED_LINES = [
    ("tensor-table --algebra 2|3 --amax 400 --bmax 400", "tensor table to a = 400, b = 400 exceeds the limit 24"),
    ("tensor-table --algebra 2|3 --amax 25", "tensor table to a = 25, b = 5 exceeds the limit 24"),
    ("conjecture-check --algebra 2|3 --bound 40", "conjecture check to bound 40 exceeds the limit 27"),
    ("identities --n 2 --truncation 100000", "truncation 100000 exceeds the limit 1600"),
]


@pytest.mark.parametrize("line,message", OVERSIZED_LINES)
def test_oversized_table_bound_or_truncation_exits_2_at_once(capsys, tmp_path, line, message):
    start = time.perf_counter()
    code = cli.main(line.split() + ["--cache-dir", str(tmp_path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert elapsed < 1
    script = tmp_path / "cmds.txt"
    script.write_text(f"{line} --no-cache\ndim --algebra 2|3 --irr 1d1 --no-cache\n")
    out = run(capsys, "batch", "--file", str(script), expect=2)
    slots = out.split("$ ")[1:]
    assert slots[0] == f"{line} --no-cache\n[exit 2] error: {message}\n"
    assert slots[1].rstrip().endswith("= 5")


NEGATIVE_LINES = [
    ("tensor-table --algebra 2|3 --amax -1", "tensor table sizes must be >= 0, got a = -1, b = 5"),
    ("tensor-table --algebra 2|3 --bmax -2", "tensor table sizes must be >= 0, got a = 5, b = -2"),
    ("conjecture-check --algebra 2|3 --bound -1", "conjecture check bound must be >= 0, got -1"),
]


@pytest.mark.parametrize("line,message", NEGATIVE_LINES)
def test_negative_table_size_or_bound_exits_2(capsys, tmp_path, line, message):
    code = cli.main(line.split() + ["--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


CRITERIA_RANGE = "criteria must be a nonempty comma list of numbers in 1-11"


@pytest.mark.parametrize("criteria", [",", "12", "0", "5,12", " ", "a"])
def test_reproduce_refuses_an_empty_or_unknown_criterion(capsys, tmp_path, criteria):
    code = cli.main(["reproduce-paper", "--criteria", criteria, "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {CRITERIA_RANGE}, got {criteria!r}\n"


def test_batch_line_with_an_unknown_criterion_exits_2(capsys, tmp_path):
    script = tmp_path / "cmds.txt"
    script.write_text("reproduce-paper --criteria 12 --no-cache\ndim --algebra 2|3 --irr 1d1 --no-cache\n")
    out = run(capsys, "batch", "--file", str(script), expect=2)
    slots = out.split("$ ")[1:]
    assert slots[0] == f"reproduce-paper --criteria 12 --no-cache\n[exit 2] error: {CRITERIA_RANGE}, got '12'\n"
    assert slots[1].rstrip().endswith("= 5")


def _cache_files(path):
    return sorted(f for f in os.listdir(path) if f.endswith(".out"))


def test_reordered_flags_hit_the_same_cache_entry(capsys, tmp_path):
    first = run(capsys, "kac", "--algebra", "2|3", "--weight", "2d1+1e1", "--format", "json", cache=tmp_path)
    files = _cache_files(tmp_path)
    again = run(capsys, "kac", "--cache-dir", str(tmp_path), "--format", "json", "--weight", "2d1+1e1",
                "--algebra", "2|3")
    assert again == first
    assert _cache_files(tmp_path) == files and len(files) == 1
    # the location of the cache is not part of the key
    other = tmp_path / "other"
    run(capsys, "kac", "--algebra", "2|3", "--weight", "2d1+1e1", "--format", "json", cache=other)
    assert _cache_files(other) == files


def test_changed_source_digest_misses_the_cache(capsys, tmp_path, monkeypatch):
    first = run(capsys, "dim", "--algebra", "2|3", "--irr", "1d1", cache=tmp_path)
    assert len(_cache_files(tmp_path)) == 1
    monkeypatch.setattr(cli, "_source_digest", lambda: "a different program")
    assert run(capsys, "dim", "--algebra", "2|3", "--irr", "1d1", cache=tmp_path) == first
    assert len(_cache_files(tmp_path)) == 2


@pytest.mark.parametrize("argv", [
    ["kac", "--algebra", "4|3", "--weight", "2d1+1d2", "--format", "latex"],
    ["euler", "--algebra", "2|4", "--parabolic", "remove=e1+e2", "--levi-module", "natural", "--format", "json"],
    ["decompose", "--algebra", "2|3", "--kac", "2d1+1e1"],
])
def test_cached_bytes_equal_fresh_bytes(capsys, tmp_path, argv):
    miss = run(capsys, *argv, cache=tmp_path)
    hit = run(capsys, *argv, cache=tmp_path)
    fresh = run(capsys, *argv, "--no-cache")
    assert hit == miss == fresh
    assert len(_cache_files(tmp_path)) == 1


def _slot_codes(out):
    """Exit code of each slot of a batch's output, in order."""
    codes = []
    for slot in re.split(r"^\$ ", out, flags=re.M)[1:]:
        hit = re.search(r"^\[exit (\d+)\] ", slot, flags=re.M)
        codes.append(int(hit.group(1)) if hit else 0)
    return codes


def test_batch_line_help_goes_to_its_own_slot(capsys, tmp_path):
    script = tmp_path / "cmds.txt"
    script.write_text(
        "dim --algebra 2|3 --irr 1d1 --no-cache\n"
        "kac --help\n"
        "dim --algebra 2|3 --irr 2d1+1e1 --no-cache\n"
    )
    out = run(capsys, "batch", "--file", str(script))
    assert out.startswith("$ ")
    slots = out.split("$ ")[1:]
    assert len(slots) == 3
    assert slots[1].startswith("kac --help\nusage: spochar kac ")
    assert "--weight WEIGHT" in slots[1] and "[exit" not in out
    assert slots[0].rstrip().endswith("= 5") and slots[2].rstrip().endswith("= 30")
    script.write_text("--version\n")
    assert run(capsys, "batch", "--file", str(script)) == f"$ --version\nspochar {cli.__version__}\n"


def test_identities_negative_truncation_exits_2(capsys):
    assert cli.main(["identities", "--n", "2", "--truncation", "-5", "--no-cache"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: truncation must be >= 0, not -5\n"


def test_cache_dir_that_is_a_file_exits_2(capsys, tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    assert cli.main(["kac", "--algebra", "2|3", "--weight", "1d1", "--cache-dir", str(blocker)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(blocker) in err


@pytest.mark.parametrize("text, expect", [
    ("1,2", "error: 1,2 is not a partition\n"),
    ("2,0,1", "error: 2,0,1 is not a partition\n"),
    ("0,1", "error: 0,1 is not a partition\n"),
])
def test_jt_refuses_a_non_partition_by_its_parts(capsys, text, expect):
    assert cli.main(["jt", "--algebra", "2|3", "--partition", text, "--no-cache"]) == 2
    assert capsys.readouterr().err == expect


def test_jt_zero_empty_and_trailing_zero_partitions(capsys):
    empty = run(capsys, "jt", "--algebra", "2|3", "--partition", "", "--no-cache")
    assert empty.startswith("D[]: vdim = 1")
    assert run(capsys, "jt", "--algebra", "2|3", "--partition", "0", "--no-cache") == empty
    assert run(capsys, "jt", "--algebra", "2|3", "--partition", "3,1,0", "--no-cache") == \
        run(capsys, "jt", "--algebra", "2|3", "--partition", "3,1", "--no-cache")


def test_import_builds_no_parser_and_loads_no_dataclasses():
    # dataclasses pulls in inspect, ast and dis: about 0.9 MB in every process
    code = ("import sys, spochar.cli as c, spochar.acceptance; "
            "print(c._build_parser.cache_info().currsize, 'dataclasses' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert res.stdout == "0 False\n"


def test_one_parser_serves_every_call_and_batch_line(capsys, tmp_path):
    script = tmp_path / "cmds.txt"
    script.write_text("dim --algebra 2|3 --irr 1d1\njt --algebra 2|3 --partition 2\nkac --algebra 2|3 --weight 1d1\n")
    cli._build_parser.cache_clear()
    run(capsys, "dim", "--algebra", "2|3", "--irr", "1d1", cache=tmp_path)
    run(capsys, "jt", "--algebra", "2|3", "--partition", "2,1", cache=tmp_path)
    run(capsys, "kac", "--algebra", "2|3", "--weight", "2d1", cache=tmp_path)
    run(capsys, "batch", "--file", str(script))
    assert cli._build_parser.cache_info().misses == 1


def test_reused_parser_carries_no_state(capsys, tmp_path, monkeypatch):
    paper = run(capsys, "dim", "--algebra", "2|3", "--kac", "1d1", "--closed-form",
                "--vdim-denominator", "paper", "--no-cache")
    assert paper.strip().endswith("= 2")
    plain = run(capsys, "dim", "--algebra", "2|3", "--kac", "1d1", "--no-cache")
    assert plain.strip().endswith("= 4")
    with pytest.raises(SystemExit) as exc:
        cli.main(["kac", "--algebra", "2|3", "--bogus"])
    assert exc.value.code == 2
    run(capsys, "kac", "--algebra", "2|3", "--weight", "1d1", "--no-cache")
    assert cli._build_parser.cache_info().currsize == 1

    def boom(*a, **k):
        raise NotDivisible("forced")

    monkeypatch.setattr(cli, "kac_character", boom)  # after the parser exists
    assert cli.main(["kac", "--algebra", "2|3", "--weight", "1d1", "--no-cache"]) == 3


# Each line with the exit code it has as a single command; as a batch line
# it must get the same code in its slot.
SAME_CODE_LINES = [
    ("dim --algebra 2|3 --irr 1d1", 0),
    ("kac --algebra 2|3 --weight 1x1", 2),
    ("kac --algebra 2|3 --weight 1d1 --bogus", 2),
    ("kac --help", 0),
    ("--version", 0),
    ("identities --n 2 --truncation -5", 2),
    ("jt --algebra 2|3 --partition 1,2", 2),
    ("kac --algebra 10|10 --weight 1d1", 2),
    ("euler --algebra 2|3 --parabolic remove=e1 --levi-module natural", 3),
]


def test_batch_line_code_equals_the_single_command_code(capsys, tmp_path, monkeypatch):
    def boom(*a, **k):
        raise NotDivisible("forced")

    monkeypatch.setattr(cli, "euler_character", boom)
    single = []
    for line, want in SAME_CODE_LINES:
        try:
            code = cli.main(line.split() + ["--no-cache"])
        except SystemExit as exc:
            code = exc.code
        capsys.readouterr()
        assert code == want, line
        single.append(code)
    script = tmp_path / "cmds.txt"
    script.write_text("".join(f"{line} --no-cache\n" for line, _ in SAME_CODE_LINES))
    out = run(capsys, "batch", "--file", str(script), expect=3)
    assert _slot_codes(out) == single


def _cli_session_lines():
    """Every line of the benchmark's cli_session pools, without its --format."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    lines = set()
    for line in (*workloads.CLI_OPEN, *workloads.CLI_LIGHT, *workloads.CLI_HEAVY):
        words = line.split()
        if "--format" in words:
            at = words.index("--format")
            del words[at:at + 2]
        lines.add(" ".join(words))
    return lines


def test_cli_session_lines_print_the_recorded_bytes(capsys):
    # exit code and sha256 prefix of stdout for every cli_session line in
    # each format, recorded when every format was still rendered on each call
    recorded = json.loads((Path(__file__).parent / "cli_session_digests.json").read_text())
    assert {f"{line} --format {fmt}" for line in _cli_session_lines() for fmt in ("text", "json", "latex")} <= set(recorded)
    for line, (code, digest) in recorded.items():
        assert cli.main(line.split() + ["--no-cache"]) == code, line
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest()[:32] == digest, line


# exit code and sha256 prefix of stdout of `euler --levi-module evensimple:` in each
# format, recorded while even-Levi characters were the W-sum over the Levi's Weyl group:
# gl(1) + so(3), the chains e1 + e2 and e1 - e2, e2 + e3 not of differences, a B_2 and a
# D_3 tail beside gl(2), and gl(4) + so(3)
EVENSIMPLE_DIGESTS = {
    "euler --algebra 2|3 --parabolic remove=d1-e1 --levi-module evensimple:2d1+1e1 --format text": (0, "1002d3a27bcb8278e7fe884a7ba42958"),
    "euler --algebra 2|3 --parabolic remove=d1-e1 --levi-module evensimple:2d1+1e1 --format json": (0, "828e039d49561634d92d11a4a6c8366e"),
    "euler --algebra 2|3 --parabolic remove=d1-e1 --levi-module evensimple:2d1+1e1 --format latex": (0, "dbd2bd108d4b0ebc3ccea2de68957bdb"),
    "euler --algebra 2|4 --parabolic remove=d1-e1,e1-e2 --levi-module evensimple:2d1+2e1+1e2 --format text": (0, "ae26ab84824d84425d5a3baeae4e3e19"),
    "euler --algebra 2|4 --parabolic remove=d1-e1,e1-e2 --levi-module evensimple:2d1+2e1+1e2 --format json": (0, "4e1e3ec6c5869fd30c9c7a16481aa280"),
    "euler --algebra 2|4 --parabolic remove=d1-e1,e1-e2 --levi-module evensimple:2d1+2e1+1e2 --format latex": (0, "2f6d7e95fbb3107b2cd039f3b2063d85"),
    "euler --algebra 2|6 --parabolic remove=d1-e1,e2-e3 --levi-module evensimple:1d1+2e1+1e2-1e3 --format text": (0, "493428edcdc73141452c7f24c792b089"),
    "euler --algebra 2|6 --parabolic remove=d1-e1,e2-e3 --levi-module evensimple:1d1+2e1+1e2-1e3 --format json": (0, "fdd4e324741b9b8a08b85fa987197fb6"),
    "euler --algebra 2|6 --parabolic remove=d1-e1,e2-e3 --levi-module evensimple:1d1+2e1+1e2-1e3 --format latex": (0, "5e218210e2db545f03b3a1033e30313d"),
    "euler --algebra 4|5 --parabolic remove=d2-e1 --levi-module evensimple:2d1+1d2+2e1+1e2 --format text": (0, "acfbe424293dbd8a96ed760971cdc408"),
    "euler --algebra 4|5 --parabolic remove=d2-e1 --levi-module evensimple:2d1+1d2+2e1+1e2 --format json": (0, "fd849712f599e47681a77a5fc3519c63"),
    "euler --algebra 4|5 --parabolic remove=d2-e1 --levi-module evensimple:2d1+1d2+2e1+1e2 --format latex": (0, "bbbc94fb60079676c06b1d7175183a6e"),
    "euler --algebra 4|6 --parabolic remove=d2-e1 --levi-module evensimple:3d1+1d2+2e1+1e2-1e3 --format text": (0, "bf149e9179f562866a1b653f4e12b586"),
    "euler --algebra 4|6 --parabolic remove=d2-e1 --levi-module evensimple:3d1+1d2+2e1+1e2-1e3 --format json": (0, "7e1429f3ecc912bc7b113b4fb2616824"),
    "euler --algebra 4|6 --parabolic remove=d2-e1 --levi-module evensimple:3d1+1d2+2e1+1e2-1e3 --format latex": (0, "29e25fef7fbbe15ce33f2be90c4a670f"),
    "euler --algebra 8|3 --parabolic remove=d4-e1 --levi-module evensimple:3d1+2d2+1d3+1e1 --format text": (0, "2acc8100a88b31379a11225c88a54dd7"),
    "euler --algebra 8|3 --parabolic remove=d4-e1 --levi-module evensimple:3d1+2d2+1d3+1e1 --format json": (0, "46c20047a9a50a404ea1d9528b365fd0"),
    "euler --algebra 8|3 --parabolic remove=d4-e1 --levi-module evensimple:3d1+2d2+1d3+1e1 --format latex": (0, "7d62ddce4dec5a790665cbbc29850e37"),
}


@pytest.mark.parametrize("line", sorted(EVENSIMPLE_DIGESTS))
def test_evensimple_euler_prints_the_recorded_bytes(capsys, line):
    code, digest = EVENSIMPLE_DIGESTS[line]
    assert cli.main(line.split() + ["--no-cache"]) == code, line
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:32] == digest, line
