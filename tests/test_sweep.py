"""``scripts/sweep.py``'s checks catch a broken layer.

Each case's rows are called once and checked, untimed, in this process: as
they are, every check holds; under one mutation of the layer that the case
guards, the case reports a wrong row.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import convground
from convground import assessment, cacheline, dialogue, knowledge, llm, schema
from convground.assessment import GraphOp, OpKind

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "sweep.py"
_spec = importlib.util.spec_from_file_location("sweep", SCRIPT)
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


def _every_pair_equivalent(monkeypatch):
    monkeypatch.setattr(convground, "knowledge_equivalent", lambda a, b: True)


def _update_in_place_of_create(monkeypatch):
    plan_ops = assessment.plan_ops

    def mutated(outcomes):
        return [GraphOp(OpKind.UPDATE_NODE, op.target, op.payload)
                if op.op is OpKind.CREATE_NODE else op for op in plan_ops(outcomes)]

    monkeypatch.setattr(assessment, "plan_ops", mutated)


def _never_fold(monkeypatch):
    monkeypatch.setattr(schema, "knowledge_from_parts", knowledge._assembled)


def _wrong_closing(monkeypatch):
    monkeypatch.setattr(llm, "_closing", lambda role, model_name, temperature: b"}")


def _drop_first_record(monkeypatch):
    def dropping(path, *decode):
        records = dialogue._iter_records(path, *decode)
        next(records, None)
        yield from records

    monkeypatch.setattr(llm, "_iter_records", dropping)


MUTATIONS = {
    "judge": _every_pair_equivalent,
    "commit": _update_in_place_of_create,
    "shared-token": _update_in_place_of_create,
    "parse": _never_fold,
    "hash": _wrong_closing,
    "cache-load": _drop_first_record,
}


@pytest.mark.parametrize("case", sweep.CASES)
def test_checks_hold_on_the_package(case, capsys):
    # The first generator of each case changes no process-wide state.
    assert sweep.run(sweep.CASES[case][0](), repeats=0) == 0
    assert "WRONG" not in capsys.readouterr().out


@pytest.mark.parametrize("case", sweep.CASES)
def test_a_broken_layer_is_reported_wrong(case, monkeypatch, capsys):
    MUTATIONS[case](monkeypatch)
    assert sweep.run(sweep.CASES[case][0](), repeats=0) > 0
    assert "WRONG" in capsys.readouterr().out


def test_each_cache_load_row_reads_its_own_path(monkeypatch, capsys):
    # A line that the checker reads wrong fails the writer's-order row only:
    # the sorted-key row takes the full decode.
    checked = cacheline.Reader.checked

    def misread(reader, line):
        spans = checked(reader, line)
        return spans and (spans[0], spans[1] + " ")

    monkeypatch.setattr(cacheline.Reader, "checked", misread)
    assert sweep.run(sweep.cache_load(), repeats=0) == 1
    out = capsys.readouterr().out
    assert "WRONG load 4,000 records, writer's key order" in out
    assert "WRONG load 4,000 records, keys sorted" not in out
    # Without the first record, each row is wrong.
    monkeypatch.undo()
    _drop_first_record(monkeypatch)
    assert sweep.run(sweep.cache_load(), repeats=0) == 2


def test_each_hash_variant_runs_in_its_own_interpreter():
    argv = [sys.executable, str(SCRIPT), "--src", str(ROOT / "src"), "--repeats", "0", "hash"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    assert "OpenSSL loaded: no" in out and "OpenSSL loaded: yes" in out
    assert "MB hashed" in out and "WRONG" not in out


def test_an_unknown_case_is_refused():
    argv = [sys.executable, str(SCRIPT), "no-such-case"]
    assert subprocess.run(argv, capture_output=True).returncode == 2
