"""Tests for the command-line interface."""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest

from simpleloop import cli, demos, quotient
from simpleloop.cli import main
from simpleloop.cover import MAX_GENUS, CoverCW, ResourceLimitError
from simpleloop.curves import (
    MAX_DEPTH,
    generate_simple_classes,
    standard_curves,
    twist_table,
    verify_non_geometric,
)
from simpleloop.quotient import check_search_budget, in_kernel
from simpleloop.words import from_letters, is_trivial, word_from_str, word_to_str

from oracles import shared_cover


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def json_records(output):
    return [json.loads(line) for line in output.strip().splitlines()]


def test_info_json(capsys):
    code, out = run_main(capsys, "info", "--genus", "2")
    assert code == 0
    (record,) = json_records(out)
    assert record["schema"] == 1
    assert record["degree"] == 16
    assert record["euler_characteristic"] == -32
    assert record["cover_genus"] == 17
    assert record["h1_dim"] == 34
    assert record["group_order_log2"] == 38


COVER_FIELDS = (
    "degree",
    "n_edges",
    "n_faces",
    "euler_characteristic",
    "cover_genus",
    "h1_dim",
    "group_order_log2",
)


@pytest.mark.parametrize(
    "genus, values",
    [
        (2, (16, 64, 16, -32, 17, 34, 38)),
        (3, (64, 384, 64, -256, 129, 258, 264)),
        (4, (256, 2048, 256, -1536, 769, 1538, 1546)),
    ],
)
def test_info_cover_record(capsys, genus, values):
    code, out = run_main(capsys, "info", "--genus", str(genus))
    assert code == 0
    (record,) = json_records(out)
    expected = {"schema": 1, "kind": "cover", "genus": genus}
    assert record == {**expected, **dict(zip(COVER_FIELDS, values))}


def test_info_text(capsys):
    code, out = run_main(capsys, "info", "--genus", "3", "--format", "text")
    assert code == 0
    assert "cover genus: 129" in out
    assert "2^264" in out


def test_info_bad_genus_exit_codes(capsys):
    assert run_main(capsys, "info", "--genus", "1")[0] == 2
    assert run_main(capsys, "info", "--genus", "5")[0] == 3


def test_genus_help_shows_the_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["info", "--help"])
    assert exc.value.code == 0
    assert "surface genus (2..%d)" % MAX_GENUS in capsys.readouterr().out


def help_text(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    return " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize(
    "command", ["info", "verify", "search-kernel", "lemma-check", "torus-demo", "realize"]
)
def test_every_option_has_help(capsys, command):
    # argparse %-formats each help string only when it prints the help.
    help_text(capsys, command)
    (commands,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    for action in commands.choices[command]._actions:
        assert action.help, (command, action.option_strings or action.dest)


def test_sweep_help_states_the_budgets(capsys):
    text = help_text(capsys, "verify")
    depth = ", ".join("%d at genus %d" % (MAX_DEPTH[g], g) for g in (2, 3, 4))
    assert "standard curve, at most %s" % depth in text
    assert "the 3g - 1 standard curves are kept at any length" in text


def test_kernel_len_help_states_the_search_budget(capsys):
    # The help must name every genus the cap allows, each with the largest
    # length that check_search_budget accepts there.
    text = help_text(capsys, "verify")
    stated = re.search(r"longest kernel word searched, at most (.*?): its half-words", text)
    pairs = re.findall(r"(\d+) at genus (\d+)", stated.group(1))
    longest = {int(genus): int(length) for length, genus in pairs}
    assert sorted(longest) == list(range(2, MAX_GENUS + 1))
    for genus, length in longest.items():
        check_search_budget(genus, length)
        with pytest.raises(ResourceLimitError):
            check_search_budget(genus, length + 1)


def test_kernel_len_help_follows_the_search_budget(capsys, monkeypatch):
    # The lengths come from the bound check_search_budget applies, so a
    # budget of 2 000 000 half-words raises genus 2 to length 14 and genus 4
    # to length 10.
    monkeypatch.setattr(quotient, "MAX_HALF_WORDS", 2_000_000)
    text = help_text(capsys, "verify")
    assert "at most 14 at genus 2, 10 at genus 3, 10 at genus 4:" in text


def test_verify_depth0_ok(capsys):
    code, out = run_main(
        capsys, "verify", "--depth", "0", "--kernel-len", "4"
    )
    assert code == 0
    records = json_records(out)
    summary = records[0]
    assert summary["kind"] == "summary"
    assert summary["status"] == "ok"
    assert summary["classes_total"] == 5
    assert summary["kernel_hits"] == []
    assert summary["witness_count"] == 4
    witnesses = [r for r in records if r["kind"] == "witness"]
    assert len(witnesses) == 4
    assert all(w["dehn_nontrivial"] for w in witnesses)
    classes = [r for r in records if r["kind"] == "class"]
    assert len(classes) == 5
    assert not any(r["in_kernel"] for r in classes)


def test_verify_no_witness_status(capsys):
    code, out = run_main(
        capsys, "verify", "--depth", "0", "--kernel-len", "3"
    )
    assert code == 1
    records = json_records(out)
    assert records[0]["status"] == "no_witness_at_bound"


@pytest.mark.parametrize(
    "hit, failure, witness, status",
    [
        (True, True, True, "kernel_hit"),
        (True, True, False, "kernel_hit"),
        (True, False, True, "kernel_hit"),
        (True, False, False, "kernel_hit"),
        (False, True, True, "lemma_failure"),
        (False, True, False, "lemma_failure"),
        (False, False, False, "no_witness_at_bound"),
        (False, False, True, "ok"),
    ],
)
def test_verify_status_ranks_failures_by_severity(
    capsys, monkeypatch, hit, failure, witness, status
):
    # A contradiction of rho outranks an inconclusive search bound.
    verify = cli.verify_non_geometric

    def planted(cover, classes):
        return verify(cover, classes)._replace(
            kernel_hits=[{"word": "a1"}] if hit else [],
            lemma_failures=[{"word": "a1", "reason": "planted"}] if failure else [],
        )

    found = [from_letters((1, 1, 2, 2, -1, -1, -2, -2))] if witness else []
    monkeypatch.setattr(cli, "verify_non_geometric", planted)
    monkeypatch.setattr(cli, "search_kernel_elements", lambda cover, max_len: found)
    code, out = run_main(capsys, "verify", "--depth", "0", "--kernel-len", "8")
    assert json_records(out)[0]["status"] == status
    assert code == (0 if status == "ok" else 1)


def test_verify_genus4_image_rank_is_exact(capsys):
    argv = ["verify", "--genus", "4", "--depth", "2", "--kernel-len", "6", "--seed", "7"]
    code, out = run_main(capsys, *argv)
    assert code == 0
    summary = json_records(out)[0]
    assert summary["image_rank"] == {
        "v_rank": 8,
        "h_rank": 1538,
        "v_dim": 8,
        "h_dim": 1538,
    }
    assert summary["config"] == {
        "genus": 4,
        "depth": 2,
        "max_len": 64,
        "kernel_len": 6,
        "seed": 7,
    }
    code, out = run_main(capsys, *argv, "--format", "text")
    assert code == 0
    assert "image rank: v 8/8, h 1538/1538\n" in out


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "report.jsonl"
    code, out = run_main(
        capsys,
        "verify",
        "--depth",
        "0",
        "--kernel-len",
        "4",
        "--out",
        str(path),
    )
    assert code == 0
    assert out == ""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records[0]["status"] == "ok"


def mask_timing(output):
    """Output text with the stage timing values masked, JSON or text."""
    output = re.sub(r'"timing": \{[^}]*\}', '"timing": {}', output)
    return re.sub(r"^timing: .*$", "timing: ...", output, flags=re.M)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_out_file_bytes_match_stdout(tmp_path, capsys, fmt):
    argv = ["verify", "--depth", "2", "--kernel-len", "6", "--format", fmt]
    code, out = run_main(capsys, *argv)
    path = tmp_path / "report"
    out_code, out_stdout = run_main(capsys, *argv, "--out", str(path))
    assert code == out_code == 0
    assert out_stdout == ""
    assert "timing" in out
    assert mask_timing(path.read_bytes().decode()) == mask_timing(out)


def test_out_to_directory_is_usage_error(tmp_path, capsys):
    code = main(["verify", "--depth", "0", "--kernel-len", "4", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_to_full_device_is_usage_error(capsys):
    code = main(["info", "--out", "/dev/full"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")


def test_closed_stdout_keeps_exit_code_and_quiet_stderr():
    # The default verify writes megabytes, far more than a pipe buffer, so
    # the writer is still blocked when the reader goes away.
    with subprocess.Popen(
        [sys.executable, "-m", "simpleloop.cli", "verify"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert json.loads(first)["kind"] == "summary"
    assert code == 0
    assert err == b""


def test_witnesses_reverify_on_load(capsys):
    code, out = run_main(capsys, "search-kernel", "--kernel-len", "6")
    assert code == 0
    records = json_records(out)
    witnesses = [r for r in records if r["kind"] == "witness"]
    assert witnesses
    for record in witnesses:
        word = word_from_str(record["word"], 2)
        assert in_kernel(shared_cover(2), word) and not is_trivial(word, 2)


def test_search_kernel_empty_bound(capsys):
    code, out = run_main(capsys, "search-kernel", "--kernel-len", "3")
    assert code == 1
    records = json_records(out)
    assert records[0]["status"] == "no_witness_at_bound"
    assert records[0]["witness_count"] == 0


def test_search_kernel_witnesses_by_length(capsys):
    code, out = run_main(capsys, "search-kernel", "--kernel-len", "8")
    assert code == 0
    summary = json_records(out)[0]
    assert summary["witnesses_by_length"] == [0, 0, 0, 4, 0, 0, 0, 77]
    assert sum(summary["witnesses_by_length"]) == summary["witness_count"] == 81


def test_verify_witnesses_by_length(capsys):
    code, out = run_main(capsys, "verify", "--depth", "0", "--kernel-len", "6")
    assert code == 0
    summary = json_records(out)[0]
    assert summary["witnesses_by_length"] == [0, 0, 0, 4, 0, 0]
    assert sum(summary["witnesses_by_length"]) == summary["witness_count"]


@pytest.mark.parametrize("command", ["search-kernel", "verify"])
def test_kernel_len_over_budget_exits_3(capsys, monkeypatch, command):
    def fail(*args, **kwargs):
        raise AssertionError("work started before the search budget was checked")

    monkeypatch.setattr(cli, "generate_simple_classes", fail)
    monkeypatch.setattr(cli, "build_mod2_cover", fail)
    code = main([command, "--kernel-len", "40"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "half-words" in captured.err


@pytest.mark.parametrize("command", ["torus-demo", "realize"])
def test_genus_above_budget_exits_3(capsys, command):
    code, out = run_main(capsys, command, "--genus", "5")
    assert code == 3
    assert out == ""


def test_search_kernel_text(capsys):
    code, out = run_main(
        capsys, "search-kernel", "--kernel-len", "4", "--format", "text"
    )
    assert code == 0
    assert "witnesses found: 4" in out
    assert "proper power" in out


def test_lemma_check_command(capsys):
    code, out = run_main(capsys, "lemma-check", "--depth", "1")
    assert code == 0
    (summary,) = json_records(out)
    assert summary["status"] == "ok"
    assert summary["lifts_per_class"] == 16
    assert summary["failures"] == []


@pytest.mark.parametrize(
    "argv", [["verify", "--depth", "1", "--kernel-len", "4"], ["lemma-check", "--depth", "1"]]
)
def test_summary_reports_peak_rss(capsys, argv):
    code, out = run_main(capsys, *argv)
    assert code == 0
    peak = json_records(out)[0]["peak_rss_mb"]
    assert isinstance(peak, float) and peak > 0
    assert round(peak, 1) == peak


@pytest.mark.parametrize(
    "platform, maxrss", [("linux", 50 * 1024), ("darwin", 50 * 1024 * 1024)]
)
def test_peak_rss_units_per_platform(monkeypatch, platform, maxrss):
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    usage = SimpleNamespace(ru_maxrss=maxrss)
    fake = SimpleNamespace(RUSAGE_SELF=0, getrusage=lambda who: usage)
    monkeypatch.setattr(cli, "resource", fake)
    monkeypatch.setattr(sys, "platform", platform)
    assert cli._peak_rss_mb() == 50.0


def test_cli_imports_without_resource(capsys, monkeypatch):
    # The resource module does not exist on Windows.
    monkeypatch.setitem(sys.modules, "resource", None)
    spec = importlib.util.find_spec("simpleloop.cli")
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    assert fresh.resource is None
    assert fresh.main(["verify", "--depth", "1", "--kernel-len", "4"]) == 0
    assert json_records(capsys.readouterr().out)[0]["peak_rss_mb"] is None


def test_lemma_check_reports_stage_timing(capsys):
    code, out = run_main(capsys, "lemma-check", "--depth", "0")
    assert code == 0
    (summary,) = json_records(out)
    assert set(summary["timing"]) == {"build_s", "generate_s", "lemma_s"}


def test_verify_times_image_rank(capsys):
    code, out = run_main(capsys, "verify", "--depth", "0", "--kernel-len", "4")
    assert code == 0
    # The lift lemma is decided inside the verification pass (verify_s).
    assert set(json_records(out)[0]["timing"]) == {
        "build_s",
        "generate_s",
        "verify_s",
        "search_s",
        "image_rank_s",
    }


@pytest.mark.parametrize("command", ["verify", "lemma-check"])
@pytest.mark.parametrize("max_len", ["0", "-3"])
def test_max_len_below_one_is_usage_error(capsys, command, max_len):
    code, out = run_main(capsys, command, "--depth", "0", "--max-len", max_len)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("genus", ["1", "-3"])
def test_torus_demo_bad_genus_is_usage_error(capsys, genus):
    code, out = run_main(capsys, "torus-demo", "--genus", genus)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "flag, named", [("--kernel-len", "kernel"), ("--max-len", "max_len")]
)
def test_verify_rejects_bounds_before_any_stage(capsys, monkeypatch, flag, named):
    def fail(*args, **kwargs):
        raise AssertionError("a stage ran before the bounds were checked")

    monkeypatch.setattr(cli, "generate_simple_classes", fail)
    monkeypatch.setattr(cli, "search_kernel_elements", fail)
    code = main(["verify", "--depth", "0", flag, "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert named in captured.err


@pytest.mark.parametrize("command", ["verify", "lemma-check"])
def test_negative_depth_rejected_before_any_stage(capsys, monkeypatch, command):
    def fail(*args, **kwargs):
        raise AssertionError("a stage ran before the depth was checked")

    monkeypatch.setattr(cli, "build_mod2_cover", fail)
    monkeypatch.setattr(cli, "generate_simple_classes", fail)
    code = main([command, "--genus", "4", "--depth", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "depth" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["lemma-check", "--depth", "8"], ["verify", "--genus", "4", "--depth", "7"]],
    ids=["lemma-check-g2", "verify-g4"],
)
def test_depth_over_budget_exits_3(capsys, monkeypatch, argv):
    def fail(*args, **kwargs):
        raise AssertionError("work started before the depth budget was checked")

    monkeypatch.setattr(cli, "build_mod2_cover", fail)
    monkeypatch.setattr(cli, "generate_simple_classes", fail)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "depth" in captured.err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["verify", "--depth", "-1", "--kernel-len", "40"], "depth"),
        (["verify", "--depth", "8", "--max-len", "0"], "max_len"),
        (["verify", "--depth", "8", "--kernel-len", "0"], "kernel"),
        (["lemma-check", "--depth", "8", "--max-len", "0"], "max_len"),
    ],
)
def test_usage_error_wins_over_budget_refusal(capsys, monkeypatch, argv, named):
    def fail(*args, **kwargs):
        raise AssertionError("a stage ran before the bounds were checked")

    monkeypatch.setattr(cli, "build_mod2_cover", fail)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert named in captured.err


@pytest.mark.parametrize("genus, depth", [("2", "3"), ("3", "2")])
def test_verify_lemma_record_matches_lemma_check(capsys, genus, depth):
    sweep = ["--genus", genus, "--depth", depth]
    code, out = run_main(capsys, "verify", *sweep, "--kernel-len", "4")
    assert code == 0
    verify = json_records(out)[0]
    code, out = run_main(capsys, "lemma-check", *sweep)
    assert code == 0
    (lemma,) = json_records(out)
    assert verify["lemma"] == {
        "separating_checked": lemma["separating_checked"],
        "nonseparating_checked": lemma["nonseparating_checked"],
        "lifts_per_class": lemma["lifts_per_class"],
        "failures": lemma["failures"],
    }
    assert verify["classes_by_depth"] == lemma["classes_by_depth"]


def test_lemma_check_rejects_max_len_before_the_cover(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the cover was built before --max-len was checked")

    monkeypatch.setattr(cli, "build_mod2_cover", fail)
    code = main(["lemma-check", "--genus", "4", "--depth", "0", "--max-len", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "max_len" in captured.err


def test_lemma_check_classes_by_depth_at_defaults(capsys):
    code, out = run_main(capsys, "lemma-check")
    assert code == 0
    (summary,) = json_records(out)
    assert summary["classes_by_depth"] == [5, 10, 39, 147, 576, 2264, 8790]
    assert sum(summary["classes_by_depth"]) == 11831


def test_verify_classes_by_depth(capsys):
    code, out = run_main(capsys, "verify", "--depth", "2", "--kernel-len", "6")
    assert code == 0
    summary = json_records(out)[0]
    assert summary["classes_by_depth"] == [5, 10, 39]
    assert sum(summary["classes_by_depth"]) == summary["classes_total"]


def check_records_digest(capsys, argv, n_lines, digest):
    code, out = run_main(capsys, "verify", *argv)
    assert code == 0
    summary, rest = out.split("\n", 1)
    assert json.loads(summary)["kind"] == "summary"
    assert len(rest.splitlines()) == n_lines
    assert hashlib.sha256(rest.encode()).hexdigest() == digest


def test_verify_records_digest(capsys):
    check_records_digest(
        capsys,
        ["--depth", "2", "--kernel-len", "6"],
        58,
        "2f0f33779394b866ca273bf5da885a50e709cb7ebe3ec38826f9c5780664e303",
    )


@pytest.mark.parametrize(
    "argv, n_lines, digest",
    [
        (
            ["--depth", "4", "--max-len", "12", "--kernel-len", "6"],
            466,
            "93ea2a1509ed3903afb48dbbd6f6f8f8a295a55147b9abc5c917756cec69c51f",
        ),
        (
            ["--genus", "3", "--depth", "3", "--max-len", "16", "--kernel-len", "6"],
            402,
            "d0be0c43a39105c904a0e4173d28e204514c0884c57877601e73fb3012884075",
        ),
        (
            ["--genus", "4", "--depth", "3", "--kernel-len", "6"],
            705,
            "70ae0f331d39bcb0a02daa235d97343fe09f8bbb18f96793422035d1c8dfbeed",
        ),
    ],
    ids=["g2-max-len-12", "g3-max-len-16", "g4-depth-3"],
)
def test_verify_records_digest_tight_max_len(capsys, argv, n_lines, digest):
    # A tight max_len drops some twist images, which the commutation skip
    # must not confuse with images that are merely unknown. Genus 4 has the
    # most commuting twists for the skip to defer.
    check_records_digest(capsys, argv, n_lines, digest)


@pytest.mark.parametrize(
    "argv, n_lines, digest",
    [
        (
            ["--kernel-len", "10"],
            378,
            "89106ad8b400dc956394e148b0771b9150e7643463bac4e0b70cc5de65aa278b",
        ),
        (
            ["--genus", "3", "--kernel-len", "8"],
            193,
            "1642aaf75c96d9aa72ff1b4547e945927fa120fb101a1d4360f1d6c56f8b3adf",
        ),
    ],
    ids=["g2-len-10", "g3-len-8"],
)
def test_search_kernel_output_digest(capsys, argv, n_lines, digest):
    # The whole JSON output, summary included: each witness record carries
    # the word's text, its Dehn normal form and the proper-power flag.
    code, out = run_main(capsys, "search-kernel", *argv)
    assert code == 0
    assert len(out.splitlines()) == n_lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("genus, depth", [(2, 6), (3, 3)])
def test_class_lines_match_encoded_records(capsys, genus, depth):
    # verify spells each class line from a format string; it must be the
    # line the encoder makes of the library's record.
    _, out = run_main(
        capsys, "verify", "--genus", str(genus), "--depth", str(depth), "--kernel-len", "4"
    )
    report = verify_non_geometric(shared_cover(genus), generate_simple_classes(genus, depth, 64))
    expected = [
        cli._encode({"schema": cli.SCHEMA, "kind": "class", **rec}) for rec in report.records
    ]
    lines = out.splitlines()
    summary = json.loads(lines[0])
    assert len(lines) == 1 + summary["witness_count"] + report.total
    assert lines[len(lines) - report.total :] == expected


def test_class_line_fields_need_no_json_escaping():
    # The class line format writes roots, twist names and word texts
    # between quotes as they are, so none may hold a character JSON escapes.
    plain = re.compile(r"^[A-Za-z0-9_ ]*$")
    for genus in range(2, MAX_GENUS + 1):
        names = set(twist_table(genus)) | {sc.root for sc in standard_curves(genus)}
        letters = from_letters(x for k in range(1, 2 * genus + 1) for x in (k, -k))
        # A word's text is its letters' tokens joined by spaces.
        texts = [word_to_str(x) for x in letters]
        texts.append(word_to_str(letters))
        for text in sorted(names) + texts:
            assert plain.match(text), text


def text_lines(output):
    """Output lines with the timing values masked."""
    return [
        "timing: ..." if line.startswith("timing: ") else line
        for line in output.splitlines()
    ]


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        (
            ["verify", "--depth", "2", "--kernel-len", "6"],
            0,
            [
                "status: ok",
                "classes: 54 (13 separating, 41 nonseparating)",
                "kernel hits among simple classes: 0",
                "kernel witnesses found: 4",
                "lemma check: pass (13 separating classes, 16 lifts each)",
                "image rank: v 4/4, h 34/34",
                "timing: ...",
            ],
        ),
        (
            ["verify", "--depth", "0", "--kernel-len", "3"],
            1,
            [
                "status: no_witness_at_bound",
                "classes: 5 (1 separating, 4 nonseparating)",
                "kernel hits among simple classes: 0",
                "kernel witnesses found: 0",
                "lemma check: pass (1 separating classes, 16 lifts each)",
                "image rank: v 4/4, h 34/34",
                "timing: ...",
                "no witness found at this bound",
            ],
        ),
        (
            ["lemma-check", "--depth", "2"],
            0,
            [
                "separating classes checked: 13 (16 lifts each)",
                "nonseparating classes checked: 41",
                "result: pass",
                "timing: ...",
            ],
        ),
        (
            ["realize", "--genus", "3"],
            0,
            [
                "group order: 2^264",
                "dimension: 4",
                "for any presentation of the quotient group with k generators "
                "and l relators: start from S^4 connected-sum k copies of "
                "S^3 x S^1, then perform l relator surgeries",
                "the target's orientation character is trivial, so the surface "
                "map is 2-sided",
            ],
        ),
    ],
)
def test_text_output(capsys, argv, code, expected):
    got_code, out = run_main(capsys, *argv, "--format", "text")
    assert got_code == code
    assert text_lines(out) == expected


def test_realize_from_file_text(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text("a\na a\n")
    code, out = run_main(capsys, "realize", str(path), "--format", "text")
    assert code == 0
    assert out.splitlines() == [
        "base: S^4 # S^3 x S^1",
        "surgery steps: 1",
        "  step 1: surgery along 'a a'",
    ]


def test_torus_demo_json(capsys):
    code, out = run_main(capsys, "torus-demo")
    assert code == 0
    records = json_records(out)
    summary = records[0]
    assert summary["status"] == "ok"
    assert summary["non_geometric_kernel"] is True
    assert summary["kernel_class_count"] == 100
    sided = [r for r in records if r["kind"] == "sidedness"]
    assert [r["two_sided"] for r in sided] == [False, True, True]
    extensions = {r["dimension"]: r for r in records if r["kind"] == "extension"}
    assert extensions[4]["warning"]
    assert extensions[5]["warning"] is None
    assert extensions[5]["pi1_unchanged"] is True


def test_torus_demo_text(capsys):
    code, out = run_main(capsys, "torus-demo", "--format", "text")
    assert code == 0
    assert "non-geometric kernel: true" in out
    assert "1-sided" in out


def test_torus_demo_fails_on_a_simple_kernel_class(capsys, monkeypatch):
    monkeypatch.setattr(demos, "iota_star", lambda c: (0, 0))
    code, out = run_main(capsys, "torus-demo")
    assert code == 1
    summary = json_records(out)[0]
    assert summary["status"] == "demo_failure"
    assert summary["non_geometric_kernel"] is False


def test_realize_from_file(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text("a\na a\n")
    code, out = run_main(capsys, "realize", str(path))
    assert code == 0
    (record,) = json_records(out)
    assert record["kind"] == "recipe"
    assert record["base"]["summands"] == ["S^4", "S^3 x S^1"]
    assert len(record["steps"]) == 1
    assert record["relators"] == ["a a"]


def test_realize_rejects_dimension3(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text("a\na a\n")
    code, _ = run_main(capsys, "realize", str(path), "--dimension", "3")
    assert code == 2


# A presentation file realize must refuse: its bytes, and the message.
BAD_PRESENTATIONS = {
    "dotless_i": (
        "\u0131\nI\n".encode(),
        "generator name '\u0131' has no uppercase inverse spelling",
    ),
    "unknown_generator": (b"a b\na c\n", "unknown generator 'c' in word"),
    "not_utf8": (b"a\n\xff\xfe\n", "'utf-8' codec can't decode byte 0xff"),
    "directory": (None, "Is a directory"),
}


@pytest.mark.parametrize("case", sorted(BAD_PRESENTATIONS))
def test_realize_rejects_bad_presentation_file(tmp_path, capsys, case):
    data, message = BAD_PRESENTATIONS[case]
    path = tmp_path / "pres.txt"
    if data is None:
        path.mkdir()
    else:
        path.write_bytes(data)
    assert main(["realize", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def test_realize_rejects_bad_presentation_file_via_subprocess(tmp_path):
    for case in ("dotless_i", "not_utf8"):
        data, message = BAD_PRESENTATIONS[case]
        path = tmp_path / (case + ".txt")
        path.write_bytes(data)
        result = subprocess.run(
            [sys.executable, "-m", "simpleloop.cli", "realize", str(path)],
            capture_output=True,
            encoding="utf-8",
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert message in result.stderr


def test_out_file_is_utf8_under_ascii_locale(tmp_path):
    # Under the C locale with UTF-8 mode off the default encoding is ASCII;
    # the report file is written as UTF-8 all the same.
    path = tmp_path / "p.txt"
    path.write_text("α β\nα β Α Β\n", encoding="utf-8")
    out = tmp_path / "r.txt"
    result = subprocess.run(
        [sys.executable, "-m", "simpleloop.cli", "realize", str(path)]
        + ["--format", "text", "--out", str(out)],
        capture_output=True,
        env={**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0"},
    )
    assert (result.returncode, result.stderr) == (0, b"")
    lines = out.read_text(encoding="utf-8").splitlines()
    assert "  step 1: surgery along 'α β Α Β'" in lines


def test_realize_missing_file(capsys):
    code, _ = run_main(capsys, "realize", "/nonexistent/pres.txt")
    assert code == 2


def test_realize_template(capsys):
    code, out = run_main(capsys, "realize", "--genus", "3")
    assert code == 0
    (record,) = json_records(out)
    assert record["kind"] == "recipe_template"
    assert record["group_order_log2"] == 264


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["--genus", "4"], 0, ""),
        (["--genus", "5"], 3, "resource bound: genus 5"),
        (["--genus", "1"], 2, "genus must be at least 2"),
        (["--dimension", "3"], 2, "dimension must be at least 4"),
        (["--genus", "5", "--dimension", "3"], 2, "dimension must be at least 4"),
        (["--genus", "1", "--dimension", "3"], 2, "dimension must be at least 4"),
    ],
)
def test_realize_template_builds_no_cover(capsys, monkeypatch, argv, code, message):
    def no_cover(*args):
        raise AssertionError("realize built a cover")

    monkeypatch.setattr(CoverCW, "__init__", no_cover)
    assert main(["realize", *argv]) == code
    assert message in capsys.readouterr().err


def test_usage_errors_via_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "simpleloop.cli", "info", "--genus", "x"],
        capture_output=True,
    )
    assert result.returncode == 2
    result = subprocess.run(
        [sys.executable, "-m", "simpleloop.cli", "nonsense"],
        capture_output=True,
    )
    assert result.returncode == 2
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "simpleloop.cli",
            "verify",
            "--depth",
            "0",
            "--workers",
            "0",
        ],
        capture_output=True,
    )
    assert result.returncode == 2
    assert b"unrecognized arguments: --workers 0" in result.stderr
