"""JSON/CSV schemas, round trips and determinism."""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import medsolve as ms
from conftest import random_gram, solve_direct
from medsolve import serialize


class TestRoundTrips:
    def test_gram(self):
        gram = ms.reference_five_state_gram()
        back = serialize.load_gram_or_ensemble(serialize.gram_to_dict(gram))
        assert isinstance(back, ms.GramMatrix)
        assert np.max(np.abs(back.entries - gram.entries)) == 0.0

    def test_ensemble(self):
        ens = ms.random_ensemble(3, seed=1, spread=0.7)
        back = serialize.load_gram_or_ensemble(serialize.ensemble_to_dict(ens))
        assert isinstance(back, ms.Ensemble)
        assert np.max(np.abs(back.states - ens.states)) == 0.0
        assert np.array_equal(back.probs, ens.probs)

    def test_povm(self):
        report = solve_direct(random_gram(3, seed=700), steps=100, h=1e-2)
        povm = report.final_povm
        back = serialize.povm_from_dict(serialize.povm_to_dict(povm))
        assert back.frame == povm.frame
        assert np.max(np.abs(back.vectors - povm.vectors)) == 0.0


def _through_file(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "payload.json"
        serialize.write_json(path, payload)
        return serialize.read_json(path)


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.integers(2, 6),
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 1.0),
    st.booleans(),
)
def test_round_trips_are_exact(m, seed, spread, real):
    ens = ms.random_ensemble(m, seed, spread, real=real)
    gram = ms.raw_gram(ens)

    back = serialize.load_gram_or_ensemble(_through_file(serialize.ensemble_to_dict(ens)))
    assert isinstance(back, ms.Ensemble)
    assert np.array_equal(back.states, ens.states)
    assert np.array_equal(back.probs, ens.probs)

    back = serialize.load_gram_or_ensemble(_through_file(serialize.gram_to_dict(gram)))
    assert isinstance(back, ms.GramMatrix)
    assert np.array_equal(back.entries, gram.entries)

    pgm = (ms.povm_from_unitary(gram, np.eye(m)), ms.povm_from_unitary(gram, np.eye(m), ens))
    for povm in pgm:
        back = serialize.povm_from_dict(_through_file(serialize.povm_to_dict(povm)))
        assert back.frame == povm.frame
        assert np.array_equal(back.vectors, povm.vectors)


class TestSchemaErrors:
    def test_missing_field_is_named(self):
        with pytest.raises(ms.SchemaError, match="gram_im"):
            serialize.load_gram_or_ensemble({"m": 2, "gram_re": [[0.5, 0], [0, 0.5]]})

    def test_wrong_shape_is_reported(self):
        with pytest.raises(ms.SchemaError, match="gram_re"):
            serialize.load_gram_or_ensemble({"m": 3, "gram_re": [[1.0]], "gram_im": [[0.0]]})

    def test_needs_one_of_the_two_schemas(self):
        with pytest.raises(ms.SchemaError, match="states_re"):
            serialize.load_gram_or_ensemble({"m": 2, "probs": [0.5, 0.5]})

    def test_non_numeric_is_rejected(self):
        with pytest.raises(ms.SchemaError, match="not numeric"):
            serialize.load_gram_or_ensemble(
                {"m": 2, "gram_re": [["x", 0], [0, 0.5]], "gram_im": [[0, 0], [0, 0]]}
            )

    @pytest.mark.parametrize("data", [[1, 2], "m", None], ids=["list", "string", "null"])
    def test_a_problem_must_be_an_object(self, data):
        with pytest.raises(ms.SchemaError, match="^input: expected a JSON object$"):
            serialize.load_gram_or_ensemble(data)

    @pytest.mark.parametrize("probs", [[1.0], [0.2, 0.3, 0.5], [[0.5, 0.5]]])
    def test_probs_of_another_length_are_a_schema_error(self, probs):
        data = dict(serialize.ensemble_to_dict(ms.Ensemble(np.eye(2), [0.5, 0.5])), probs=probs)
        message = f"input: field 'probs' must have shape (2,), got {np.shape(probs)}"
        with pytest.raises(ms.SchemaError, match=f"^{re.escape(message)}$"):
            serialize.load_gram_or_ensemble(data)

    @pytest.mark.parametrize("text", ["[]", "1.5", '"m"', "null"])
    def test_a_file_must_hold_an_object(self, tmp_path, text):
        path = tmp_path / "top.json"
        path.write_text(text)
        with pytest.raises(ms.SchemaError, match="top level must be a JSON object$"):
            serialize.read_json(path)

    def test_unknown_frame_is_a_schema_error(self):
        data = dict(serialize.povm_to_dict(ms.Povm(np.eye(2))), frame="bogus")
        with pytest.raises(ms.SchemaError, match="field 'frame' must be 'dual' or 'ambient'"):
            serialize.povm_from_dict(data)


class TestDeterminism:
    def test_json_output_is_byte_identical(self, tmp_path):
        report = solve_direct(random_gram(3, seed=701), steps=100, h=1e-2)
        payload = serialize.run_report_to_dict(report)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        serialize.write_json(a, payload)
        serialize.write_json(b, payload)
        assert a.read_bytes() == b.read_bytes()

    def test_floats_round_trip(self, tmp_path):
        gram = ms.reference_five_state_gram()
        path = tmp_path / "gram.json"
        serialize.write_json(path, serialize.gram_to_dict(gram))
        back = serialize.load_gram_or_ensemble(json.loads(path.read_text()))
        assert np.max(np.abs(back.entries - gram.entries)) == 0.0


class TestTraceCsv:
    def test_layout_and_values(self, tmp_path):
        report = solve_direct(random_gram(2, seed=702), steps=100, h=1e-2)
        path = tmp_path / "trace.csv"
        serialize.write_trace_csv(path, report.trace)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,t,log10_hs_residual,min_eig_F,p_success_partial"
        assert len(lines) == 101
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[2]) == pytest.approx(np.log10(report.trace[0, 2]), abs=1e-12)

    def test_zero_residual_stays_finite(self, tmp_path):
        trace = np.array([[1, 0.01, 0.0, 0.5, 1.0]])
        path = tmp_path / "t.csv"
        serialize.write_trace_csv(path, trace)
        val = float(path.read_text().strip().splitlines()[1].split(",")[2])
        assert np.isfinite(val)

    def test_bytes_match_the_per_row_formula(self, tmp_path):
        # the column-wise log10 and the formatted tolist() rows write what one
        # scalar log10 per row wrote, residual floor and signs included
        report = solve_direct(random_gram(4, seed=703, real=False), steps=50, h=2e-2)
        synthetic = np.array([
            [1, 0.25, 0.0, 0.5, 0.75],
            [2, 0.5, 5e-324, -1e-3, 0.8],
            [3, 0.75, 1e-300, -0.0, 0.9],
            [4, 1.0, 1.0, -2.5, 1.0],
        ])
        for trace in (report.trace, synthetic):
            lines = ["iter,t,log10_hs_residual,min_eig_F,p_success_partial"]
            for row in trace:
                log_resid = np.log10(max(float(row[2]), serialize.LOG_FLOOR))
                lines.append(
                    f"{int(row[0])},{row[1]:.17g},{log_resid:.17g},{row[3]:.17g},{row[4]:.17g}"
                )
            path = tmp_path / "trace.csv"
            serialize.write_trace_csv(path, trace)
            assert path.read_text() == "\n".join(lines) + "\n"
