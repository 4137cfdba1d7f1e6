"""Tests for the command-line interface."""

import json
import subprocess
import sys

import pytest

from simpleloop.cli import main, verify_witness_record
from simpleloop.cover import build_mod2_cover
from simpleloop.quotient import GroupContext


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


def test_info_text(capsys):
    code, out = run_main(capsys, "info", "--genus", "3", "--format", "text")
    assert code == 0
    assert "cover genus: 129" in out
    assert "2^264" in out


def test_info_bad_genus_exit_codes(capsys):
    assert run_main(capsys, "info", "--genus", "1")[0] == 2
    assert run_main(capsys, "info", "--genus", "5")[0] == 3


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


def test_verify_workers_agree(capsys):
    code1, out1 = run_main(
        capsys, "verify", "--depth", "1", "--kernel-len", "4"
    )
    code2, out2 = run_main(
        capsys,
        "verify",
        "--depth",
        "1",
        "--kernel-len",
        "4",
        "--workers",
        "4",
    )
    assert code1 == code2 == 0
    rec1 = json_records(out1)
    rec2 = json_records(out2)
    rec1[0]["timing"] = rec2[0]["timing"] = None
    rec1[0]["config"]["workers"] = rec2[0]["config"]["workers"] = None
    assert rec1 == rec2


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


def test_witnesses_reverify_on_load(capsys):
    code, out = run_main(capsys, "search-kernel", "--kernel-len", "6")
    assert code == 0
    records = json_records(out)
    ctx = GroupContext(build_mod2_cover(2))
    witnesses = [r for r in records if r["kind"] == "witness"]
    assert witnesses
    for record in witnesses:
        assert verify_witness_record(record, ctx)


def test_search_kernel_empty_bound(capsys):
    code, out = run_main(capsys, "search-kernel", "--kernel-len", "3")
    assert code == 1
    records = json_records(out)
    assert records[0]["status"] == "no_witness_at_bound"
    assert records[0]["witness_count"] == 0


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


def test_lemma_check_reports_stage_timing(capsys):
    code, out = run_main(capsys, "lemma-check", "--depth", "0")
    assert code == 0
    (summary,) = json_records(out)
    assert set(summary["timing"]) == {"build_s", "generate_s", "lemma_s"}


def test_verify_times_image_rank(capsys):
    code, out = run_main(capsys, "verify", "--depth", "0", "--kernel-len", "4")
    assert code == 0
    assert "image_rank_s" in json_records(out)[0]["timing"]


@pytest.mark.parametrize("command", ["verify", "lemma-check"])
@pytest.mark.parametrize("max_len", ["0", "-3"])
def test_max_len_below_one_is_usage_error(capsys, command, max_len):
    code, out = run_main(capsys, command, "--depth", "0", "--max-len", max_len)
    assert code == 2
    assert out == ""


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


def test_realize_missing_file(capsys):
    code, _ = run_main(capsys, "realize", "/nonexistent/pres.txt")
    assert code == 2


def test_realize_template(capsys):
    code, out = run_main(capsys, "realize", "--genus", "3")
    assert code == 0
    (record,) = json_records(out)
    assert record["kind"] == "recipe_template"
    assert record["group_order_log2"] == 264


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
