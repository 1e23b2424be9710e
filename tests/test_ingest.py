import dataclasses
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sfpp import cli, ingest, numerics
from sfpp.errors import ArrayFormatError, BundleValidationError
from sfpp.ingest import (
    BUNDLE_KEYS,
    DatasetBundle,
    EstimateReport,
    FeatureRows,
    load_bundle,
    read_array,
    read_features,
    read_manifest,
    _fmt_json,
    report_to_json,
    to_json_text,
    write_array,
    write_report,
    write_rows,
)


def npy_bytes(descr=b"'<f8'", fortran=b"False", shape=b"(2, 2)", payload=None):
    """Hand-assemble an NPY file so malformed variants are easy to produce."""
    header = b"{'descr': " + descr + b", 'fortran_order': " + fortran + b", 'shape': " + shape + b", }"
    pad = -(10 + len(header) + 1) % 64
    header = header + b" " * pad + b"\n"
    if payload is None:
        payload = np.zeros(4, dtype="<f8").tobytes()
    return b"\x93NUMPY" + bytes([1, 0]) + len(header).to_bytes(2, "little") + header + payload


class TestReadWriteArray:
    def test_npy_zeros(self, tmp_path):
        p = tmp_path / "z.npy"
        p.write_bytes(npy_bytes(shape=b"(2, 3)", payload=np.zeros(6, "<f8").tobytes()))
        got = read_array(p)
        np.testing.assert_array_equal(got, np.zeros((2, 3)))

    def test_csv_basic(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2\n3,4\n")
        np.testing.assert_array_equal(read_array(p), [[1.0, 2.0], [3.0, 4.0]])

    def test_csv_header_detected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("c0,c1\n1,2\n")
        np.testing.assert_array_equal(read_array(p), [[1.0, 2.0]])

    @pytest.mark.parametrize("text, want", [
        (b"1,2,3\n4,5,6\n7,8,9\n", [[1, 2, 3], [4, 5, 6], [7, 8, 9]]),
        (b"c0,c1\n1,2\n", [[1, 2]]),
    ], ids=["rows", "header"])
    def test_csv_byte_order_mark_dropped(self, tmp_path, text, want):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + text)
        np.testing.assert_array_equal(read_array(p), want)

    @pytest.mark.parametrize("text", ["a,b,c\n1,2\n", "a\n1,2\n3,4\n"], ids=["wider", "narrower"])
    def test_csv_header_of_another_width_is_ragged(self, tmp_path, text):
        p = tmp_path / "h.csv"
        p.write_text(text)
        with pytest.raises(ArrayFormatError, match="ragged CSV, header width"):
            read_array(p)

    def test_roundtrip_random_matrix_bitwise(self, tmp_path):
        rng = np.random.default_rng(41)
        a = rng.normal(size=(1000, 62))
        p = tmp_path / "m.npy"
        write_array(p, a)
        assert read_array(p).tobytes() == a.tobytes()

    def test_roundtrip_identity(self, tmp_path):
        p = tmp_path / "i.npy"
        write_array(p, np.eye(2))
        assert read_array(p).tobytes() == np.eye(2).tobytes()

    def test_roundtrip_int_labels(self, tmp_path):
        p = tmp_path / "l.npy"
        write_array(p, np.array([0, 1, 2]))
        got = read_array(p)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, [0, 1, 2])

    def test_roundtrip_rank1_float(self, tmp_path):
        rng = np.random.default_rng(43)
        v = rng.normal(size=17)
        p = tmp_path / "v.npy"
        write_array(p, v)
        assert read_array(p).tobytes() == v.tobytes()

    def test_f4_widens_to_f8(self, tmp_path):
        v = np.array([1.5, -2.25, 3.0], dtype="<f4")
        p = tmp_path / "f4.npy"
        p.write_bytes(npy_bytes(descr=b"'<f4'", shape=b"(3,)", payload=v.tobytes()))
        got = read_array(p)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, v.astype(np.float64))

    @pytest.mark.parametrize("values, descr, shape, payload", [
        (np.array([0.5, -2.0, 1e-300]), "<f8", b"(3,)", [0.5, -2.0, 1e-300]),
        (np.arange(6.0).reshape(2, 3) / 7.0, "<f8", b"(2, 3)", np.arange(6.0) / 7.0),
        (np.array([-3, 0, 2**40]), "<i8", b"(3,)", [-3, 0, 2**40]),
        (np.arange(6, dtype=np.int32).reshape(3, 2), "<i8", b"(3, 2)", range(6)),
        (np.zeros((0, 3)), "<f8", b"(0, 3)", []),
        (np.asfortranarray(np.arange(6).reshape(2, 3)), "<i8", b"(2, 3)", range(6)),
        (np.array([[True, False], [False, True]]), "<i8", b"(2, 2)", [1, 0, 0, 1]),
    ], ids=["f8-rank1", "f8-rank2", "i8-rank1", "i8-rank2", "empty-rows", "fortran-int", "bool"])
    def test_written_bytes_pinned(self, tmp_path, values, descr, shape, payload):
        p = tmp_path / "a.npy"
        write_array(p, values)
        want = npy_bytes(descr=f"'{descr}'".encode(), shape=shape,
                         payload=np.array(payload, dtype=descr).tobytes())
        assert p.read_bytes() == want

    def test_header_is_64_byte_aligned(self, tmp_path):
        p = tmp_path / "a.npy"
        write_array(p, np.zeros((3, 5)))
        raw = p.read_bytes()
        header_len = int.from_bytes(raw[8:10], "little")
        assert (10 + header_len) % 64 == 0
        assert raw[10 + header_len - 1:10 + header_len] == b"\n"


class TestWriteRows:
    @pytest.mark.parametrize("splits", [[], [4], [1, 4], [1, 2, 4]],
                             ids=["one-block", "two-blocks", "three-blocks", "four-blocks"])
    def test_same_bytes_as_write_array(self, tmp_path, splits):
        a = np.random.default_rng(5).normal(size=(5, 3))
        write_array(tmp_path / "whole.npy", a)
        write_rows(tmp_path / "rows.npy", a.shape, np.split(a, splits))
        assert (tmp_path / "rows.npy").read_bytes() == (tmp_path / "whole.npy").read_bytes()

    def test_zero_rows(self, tmp_path):
        write_array(tmp_path / "whole.npy", np.zeros((0, 3)))
        write_rows(tmp_path / "rows.npy", (0, 3), iter(()))
        assert (tmp_path / "rows.npy").read_bytes() == (tmp_path / "whole.npy").read_bytes()

    def test_raising_block_leaves_no_file(self, tmp_path):
        def blocks():
            yield np.zeros((2, 3))
            raise ArrayFormatError("block failed")

        p = tmp_path / "rows.npy"
        with pytest.raises(ArrayFormatError, match="block failed"):
            write_rows(p, (4, 3), blocks())
        assert not p.exists()

    @pytest.mark.parametrize("write", [
        lambda p: write_array(p, np.zeros((4, 3))),
        lambda p: write_rows(p, (4, 3), [np.zeros((4, 3))]),
    ], ids=["write_array", "write_rows"])
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, write):
        def full_disk(fh, header):
            fh.write(b"\x93NUMPY")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(np.lib.format, "write_array_header_1_0", full_disk)
        p = tmp_path / "a.npy"
        with pytest.raises(OSError, match="No space left"):
            write(p)
        assert not p.exists()


class TestMalformedCorpus:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.npy"
        p.write_bytes(b"\x93NUMPZ" + npy_bytes()[6:])
        with pytest.raises(ArrayFormatError, match="magic"):
            read_array(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "x.npy"
        raw = bytearray(npy_bytes())
        raw[6] = 2
        p.write_bytes(bytes(raw))
        with pytest.raises(ArrayFormatError, match="version"):
            read_array(p)

    def test_fortran_order_rejected(self, tmp_path):
        p = tmp_path / "x.npy"
        p.write_bytes(npy_bytes(fortran=b"True"))
        with pytest.raises(ArrayFormatError, match="fortran"):
            read_array(p)

    def test_unsupported_dtype(self, tmp_path):
        p = tmp_path / "x.npy"
        p.write_bytes(npy_bytes(descr=b"'<i4'", payload=np.zeros(4, "<i4").tobytes()))
        with pytest.raises(ArrayFormatError, match="dtype"):
            read_array(p)

    def test_rank3_rejected(self, tmp_path):
        p = tmp_path / "x.npy"
        p.write_bytes(npy_bytes(shape=b"(2, 2, 1)"))
        with pytest.raises(ArrayFormatError, match="rank"):
            read_array(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "x.npy"
        p.write_bytes(npy_bytes(payload=np.zeros(3, "<f8").tobytes()))
        with pytest.raises(ArrayFormatError, match="payload"):
            read_array(p)

    def test_nan_rejected(self, tmp_path):
        p = tmp_path / "x.npy"
        p.write_bytes(npy_bytes(payload=np.array([0.0, np.nan, 0.0, 0.0]).tobytes()))
        with pytest.raises(ArrayFormatError, match="NaN"):
            read_array(p)

    def test_ragged_csv(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1,2\n3,4,5\n")
        with pytest.raises(ArrayFormatError, match="ragged"):
            read_array(p)

    def test_unknown_extension(self, tmp_path):
        p = tmp_path / "x.dat"
        p.write_text("1")
        with pytest.raises(ArrayFormatError, match="extension"):
            read_array(p)


class TestLoadBundle:
    def test_logits_only(self):
        rng = np.random.default_rng(47)
        b = load_bundle({"target_logits": rng.normal(size=(10, 3))})
        assert b.class_count == 3
        assert b.n_target == 10
        assert b.target_features is None and not b.has_validation

    def test_labels_out_of_range(self):
        rng = np.random.default_rng(53)
        with pytest.raises(BundleValidationError, match=r"val_labels must lie in \[0, 3\)"):
            load_bundle({
                "target_logits": rng.normal(size=(4, 3)),
                "val_logits": rng.normal(size=(5, 3)),
                "val_labels": np.array([0, 1, 2, 3, 0]),
            })

    def test_val_pair_required_together(self):
        rng = np.random.default_rng(59)
        with pytest.raises(BundleValidationError, match="together"):
            load_bundle({
                "target_logits": rng.normal(size=(4, 3)),
                "val_logits": rng.normal(size=(5, 3)),
            })

    def test_shape_mismatch_names_both_arrays(self):
        rng = np.random.default_rng(61)
        with pytest.raises(BundleValidationError) as err:
            load_bundle({
                "target_logits": rng.normal(size=(4, 3)),
                "target_features": rng.normal(size=(5, 2)),
            })
        assert "target_features" in str(err.value) and "target_logits" in str(err.value)

    def test_weights_vs_features_width(self):
        rng = np.random.default_rng(67)
        with pytest.raises(BundleValidationError, match="width"):
            load_bundle({
                "target_logits": rng.normal(size=(4, 3)),
                "target_features": rng.normal(size=(4, 5)),
                "last_layer_weights": rng.normal(size=(3, 6)),
            })

    def test_full_bundle_from_files(self, tmp_path):
        rng = np.random.default_rng(71)
        names = {
            "target_logits": rng.normal(size=(8, 3)),
            "target_features": rng.normal(size=(8, 4)),
            "last_layer_weights": rng.normal(size=(3, 4)),
            "last_layer_bias": rng.normal(size=3),
            "val_logits": rng.normal(size=(6, 3)),
            "val_labels": rng.integers(0, 3, size=6),
        }
        manifest = {}
        for key, arr in names.items():
            p = tmp_path / f"{key}.npy"
            write_array(p, arr)
            manifest[key] = str(p)
        b = load_bundle(manifest)
        assert b.class_count == 3 and b.has_validation
        np.testing.assert_array_equal(b.val_labels, names["val_labels"])

    def test_manifest_file(self, tmp_path):
        rng = np.random.default_rng(73)
        p = tmp_path / "logits.npy"
        write_array(p, rng.normal(size=(5, 2)))
        mf = tmp_path / "bundle.manifest"
        mf.write_text(f"# fixture\ntarget_logits = {p}\n")
        b = load_bundle(read_manifest(mf))
        assert b.class_count == 2

    def test_manifest_unknown_key(self, tmp_path):
        mf = tmp_path / "bundle.manifest"
        mf.write_text("bogus = x.npy\n")
        with pytest.raises(BundleValidationError, match="unknown manifest key"):
            read_manifest(mf)

    def test_manifest_repeated_key_names_both_lines(self, tmp_path):
        mf = tmp_path / "bundle.manifest"
        mf.write_text("target_logits = a.npy\n# comment\ntarget_logits = b.npy\n")
        with pytest.raises(BundleValidationError) as info:
            read_manifest(mf)
        assert str(info.value) == f"{mf}:3: manifest key 'target_logits' repeats line 1"

    @pytest.mark.parametrize("shape", [(4,), (1, 4), (4, 1)])
    def test_bias_vector_row_or_column_accepted(self, shape):
        bias = np.arange(4.0).reshape(shape)
        b = load_bundle({"target_logits": np.zeros((3, 4)), "last_layer_bias": bias})
        np.testing.assert_array_equal(b.last_layer_bias, np.arange(4.0))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 4), (4, 4), (1, 1), (3,), ()])
    def test_bias_of_another_shape_rejected(self, shape):
        with pytest.raises(BundleValidationError) as info:
            load_bundle({"target_logits": np.zeros((3, 4)), "last_layer_bias": np.zeros(shape)})
        assert "last_layer_bias" in str(info.value) and f"got shape {shape}" in str(info.value)


class TestValidationSplitInCode:
    """A bundle built in code meets every rule load_bundle applies, with the
    same messages; estimators used to give wrong answers without them."""

    @pytest.mark.parametrize("given, message", [
        ({"val_labels": None}, "val_logits and val_labels must be given together"),
        ({"val_labels": np.zeros(5, dtype=np.int64)},
         "val_labels has 5 entries but val_logits has 20 rows"),
        ({"val_labels": np.array([7] + [0] * 19)},
         "val_labels must lie in [0, 4), found range [0, 7]"),
        ({"target_features": np.zeros((49, 3))},
         "target_features has 49 rows but target_logits has 50"),
        ({"last_layer_weights": np.zeros((3, 6))},
         "last_layer_weights has 3 rows but target_logits implies C=4"),
        ({"target_features": np.zeros((50, 5)), "last_layer_weights": np.zeros((4, 6))},
         "last_layer_weights width 6 mismatches target_features width 5"),
        ({"last_layer_bias": np.zeros((2, 2))},
         "last_layer_bias must be a length-C vector, one row or one column, "
         "with C=4 from target_logits; got shape (2, 2)"),
        ({"class_count": 3}, "class_count is 3 but target_logits has 4 columns"),
        ({"val_logits": np.zeros(20)}, "val_logits must be 2-D, got shape (20,)"),
        ({"val_labels": np.full(20, 0.5)}, "val_labels holds non-integral values"),
    ], ids=["no-labels", "short-labels", "label-out-of-range", "features-rows",
            "weights-rows", "weights-width", "bias-shape", "class-count", "1-d-val-logits",
            "half-labels"])
    def test_rejected_in_code_and_from_arrays(self, given, message):
        rng = np.random.default_rng(79)
        fields = {"target_logits": rng.normal(size=(50, 4)), "class_count": 4,
                  "val_logits": rng.normal(size=(20, 4)),
                  "val_labels": rng.integers(0, 4, 20), **given}
        with pytest.raises(BundleValidationError) as in_code:
            DatasetBundle(**fields)
        assert str(in_code.value) == message
        if "class_count" in given:  # load_bundle takes C from target_logits
            return
        with pytest.raises(BundleValidationError) as loaded:
            load_bundle({key: fields.get(key) for key in BUNDLE_KEYS})
        assert str(loaded.value) == message

    def test_width_mismatch_rejected_in_code(self):
        with pytest.raises(BundleValidationError,
                           match="^val_logits has 3 columns but target_logits has 4$"):
            DatasetBundle(target_logits=np.zeros((5, 4)), class_count=4,
                          val_logits=np.zeros((2, 3)), val_labels=np.zeros(2, dtype=np.int64))


class TestReports:
    def make_report(self):
        return EstimateReport(
            method="ac",
            predicted_accuracy=0.625,
            n_samples=8,
            per_sample_correct=np.array([1, 1, 0, 1, 0, 1, 1, 0]),
            grad_norm_pairs=np.array([[0.1, 0.2]] * 8),
            config_echo={"temperature": 1.0, "mode": "bayes"},
            elapsed_ms=12.5,
            seed=3,
        )

    def test_key_order(self, tmp_path):
        p = tmp_path / "r.json"
        write_report(self.make_report(), p)
        text = p.read_text("utf-8")
        order = [text.index(f'"{k}"') for k in (
            "method", "predicted_accuracy", "n_samples", "per_sample_correct",
            "grad_norms", "config", "elapsed_ms", "seed",
        )]
        assert order == sorted(order)

    def test_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(self.make_report(), a)
        write_report(self.make_report(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_valid_json_with_17_digits(self):
        import json

        text = report_to_json(self.make_report())
        doc = json.loads(text)
        assert doc["predicted_accuracy"] == 0.625
        assert doc["per_sample_correct"] == [1, 1, 0, 1, 0, 1, 1, 0]
        assert doc["seed"] == 3
        # one third survives the round trip at 17 significant digits
        r = self.make_report()
        r.predicted_accuracy = 1.0 / 3.0
        assert json.loads(report_to_json(r))["predicted_accuracy"] == 1.0 / 3.0

    def test_optionals_omitted(self):
        r = EstimateReport(method="doc", predicted_accuracy=0.5, n_samples=4)
        text = report_to_json(r)
        assert "per_sample_correct" not in text and "grad_norms" not in text
        assert '"seed": null' in text

    def test_nonfinite_rejected(self):
        r = EstimateReport(method="doc", predicted_accuracy=float("nan"), n_samples=4)
        with pytest.raises(ValueError):
            report_to_json(r)

    @pytest.mark.parametrize("as_given", [
        lambda v: np.array(v, dtype=np.int8),
        lambda v: np.array(v, dtype=np.int64),
        lambda v: np.array(v, dtype=bool),
        list,
    ], ids=["int8", "int64", "bool", "list"])
    def test_per_sample_arrays_match_recursive_rendering(self, as_given):
        edge = [0.0, -0.0, 1e-300, 5e-324, 2.2250738585072014e-308 / 3, 1e300,
                3.0, -7.0, 1.0 / 3.0, 2.0 ** 53, 0.1]
        pairs = np.array(edge + edge[::-1]).reshape(-1, 2)
        correct = as_given([1, 0] * (pairs.shape[0] // 2) + [1] * (pairs.shape[0] % 2))
        r = EstimateReport(method="calibrated-gradnorm", predicted_accuracy=0.5,
                           n_samples=pairs.shape[0], per_sample_correct=correct,
                           grad_norm_pairs=pairs, config_echo={"mode": "bayes"})
        doc = {
            "method": r.method,
            "predicted_accuracy": 0.5,
            "n_samples": pairs.shape[0],
            "per_sample_correct": [int(v) for v in correct],
            "grad_norms": [[float(a), float(b)] for a, b in pairs],
            "config": {"mode": "bayes"},
            "elapsed_ms": 0.0,
            "seed": None,
        }
        assert report_to_json(r) == _fmt_json(doc, 0) + "\n"

    def test_empty_per_sample_arrays(self):
        r = EstimateReport(method="ac", predicted_accuracy=0.0, n_samples=0,
                           per_sample_correct=np.zeros(0, dtype=np.int8),
                           grad_norm_pairs=np.zeros((0, 2)))
        text = report_to_json(r)
        assert '"per_sample_correct": []' in text and '"grad_norms": []' in text

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_grad_norm_rejected(self, bad):
        pairs = np.array([[0.1, 0.2], [0.3, bad]])
        r = EstimateReport(method="gradnorm", predicted_accuracy=0.5, n_samples=2,
                           grad_norm_pairs=pairs)
        with pytest.raises(ValueError, match=f"non-finite real: {bad}"):
            report_to_json(r)

    @pytest.mark.parametrize("text", ["a\tb", '"q', "a\\b", "a\bb", "\x00\x1f\n\r", "é€"])
    def test_keys_and_values_escaped(self, text):
        import json

        rendered = to_json_text({text: text, "nested": {text: [text]}})
        assert json.loads(rendered) == {text: text, "nested": {text: [text]}}
        assert not any(ch < " " for ch in rendered.replace("\n", ""))

    def test_control_characters_as_unicode_escapes(self):
        assert to_json_text({"a\tb": "\x1f"}) == '{\n  "a\\u0009b": "\\u001f"\n}\n'

    @pytest.mark.parametrize("rows", [0, 1, 5, 10_001])
    def test_written_bytes_are_the_rendered_text(self, tmp_path, rows):
        """write_report streams the pieces report_to_json joins: 10 001 rows
        of two norms span five rendering chunks."""
        rng = np.random.default_rng(rows)
        r = EstimateReport(method="gradnorm", predicted_accuracy=0.5, n_samples=rows,
                           per_sample_correct=rng.integers(0, 2, rows).astype(np.int8),
                           grad_norm_pairs=rng.lognormal(size=(rows, 2)),
                           config_echo={"temperature": 1.0, "name": "é"}, seed=7)
        write_report(r, tmp_path / "r.json")
        assert (tmp_path / "r.json").read_bytes() == report_to_json(r).encode("utf-8")

    def test_failed_render_leaves_no_file(self, tmp_path):
        """The norms are rendered after the report's first keys are written;
        a non-finite one removes the file, here one that existed before."""
        p = tmp_path / "r.json"
        p.write_text("old")
        r = EstimateReport(method="gradnorm", predicted_accuracy=0.5, n_samples=2,
                           grad_norm_pairs=np.array([[0.1, 0.2], [0.3, np.inf]]))
        with pytest.raises(ValueError, match="non-finite real: inf"):
            write_report(r, p)
        assert not p.exists()

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        class FullDisk(io.FileIO):
            def write(self, data):
                if self.tell():
                    raise OSError(28, "No space left on device")
                return super().write(data)

        monkeypatch.setattr(ingest, "open", lambda path, mode: FullDisk(path, "w"), raising=False)
        p = tmp_path / "r.json"
        with pytest.raises(OSError, match="No space left"):
            write_report(self.make_report(), p)
        assert not p.exists()


def python_rendering(matrix):
    """The oracle: the same values as lists of Python floats, each through format_real."""
    return _fmt_json([[float(v) for v in row] for row in np.asarray(matrix)], 0)


_REALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda sign, power: sign * 10.0 ** power,
              st.sampled_from([-1.0, 1.0]), st.floats(-9.0, 19.0)),
)


class TestRealMatrixRendering:
    """Float matrices render through numpy, byte for byte as Python formats each value."""

    @settings(max_examples=300, deadline=None)
    @given(matrix=st.integers(2, 3).flatmap(lambda width: arrays(
        np.float64, st.tuples(st.integers(1, 40), st.just(width)), elements=_REALS)))
    def test_matches_python_formatting(self, matrix):
        assert _fmt_json(matrix, 0) == python_rendering(matrix)

    @staticmethod
    def fixed_values():
        powers = [float(10**k) if k >= 0 else float(f"1e{k}") for k in range(-8, 19)]
        values = []
        for p in powers:
            values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
        # exact 17-digit ties, which round half to even
        values += [1e15 + 0.25, 1e15 + 0.75, 1e14 + 0.125, 1e14 + 0.375]
        # the doubles nearest 1e-14 and 1e98 lie below them yet print as them:
        # their rounding carries into the next power of ten. No double with
        # 1e-6 < |x| < 1e17 does; those are the 10^k neighbours above.
        values += [1e-14, 1e98]
        # the kernel's bounds and the values Python formats itself
        values += [1e-6, 1e17, 0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
        return np.array(values)

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_fixed_values(self, width, sign):
        v = sign * self.fixed_values()
        matrix = v[: v.size // width * width].reshape(-1, width)
        assert _fmt_json(matrix, 0) == python_rendering(matrix)

    def test_ties_round_half_to_even(self):
        ties = np.array([[1e15 + 0.25, 1e15 + 0.75, 1e14 + 0.125, 1e14 + 0.375]])
        assert _fmt_json(ties, 0) == (
            "[[1000000000000000.2, 1000000000000000.8, 100000000000000.12, 100000000000000.38]]")

    def test_chunk_boundary_inside_a_row(self):
        """16500 values in rows of 3: the first chunk of 2**14 ends after the
        first value of row 5461, and the second chunk starts inside that row."""
        rng = np.random.default_rng(11)
        matrix = 10.0 ** rng.uniform(-9, 19, (5500, 3)) * rng.choice([-1.0, 1.0], (5500, 3))
        matrix[5461] = [0.0, -1e-7, 123.5]
        matrix[5460, 2] = -0.0
        assert _fmt_json(matrix, 0) == python_rendering(matrix)

    def test_non_contiguous_and_float32_matrices(self):
        rng = np.random.default_rng(12)
        matrix = rng.normal(size=(50, 6))[:, ::3]
        assert _fmt_json(matrix, 0) == python_rendering(matrix)
        narrow = rng.normal(size=(20, 2)).astype(np.float32)
        assert _fmt_json(narrow, 0) == python_rendering(narrow)


class TestIntVectorRendering:
    @pytest.mark.parametrize("dtype", [np.int8, np.int64, bool])
    def test_verdicts(self, dtype):
        v = (np.random.default_rng(13).random(1000) < 0.7).astype(dtype)
        assert _fmt_json(v, 0) == "[%s]" % ", ".join(str(int(x)) for x in v)

    @pytest.mark.parametrize("values", [
        list(range(10)) * 3,
        [0, 1, -1, 1],
        [0, 10, 1],
        [np.iinfo(np.int64).min, 0, np.iinfo(np.int64).max],
    ])
    def test_other_vectors_keep_their_bytes(self, values):
        v = np.array(values, dtype=np.int64)
        assert _fmt_json(v, 0) == "[%s]" % ", ".join(str(x) for x in values)


class TestIngestPeakMemory:
    @staticmethod
    def peak_bytes(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_read_array_holds_the_array_once(self, tmp_path):
        """The finiteness check reads a max and a min; a mask of the array
        would add an eighth of it."""
        values = np.random.default_rng(14).normal(size=(100_000, 50))
        path = tmp_path / "big.npy"
        write_array(path, values)
        assert self.peak_bytes(lambda: read_array(path)) < 1.01 * values.nbytes

    def test_report_rendering_peaks_near_two_texts(self):
        """A 10^5-row report with two norms per row peaks at 2.2 times its
        text: the text and one copy as the document is assembled, and one
        chunk's arrays. Formatting a list of Python floats took 2.95."""
        rng = np.random.default_rng(15)
        n = 100_000
        report = EstimateReport(method="calibrated-gradnorm", predicted_accuracy=0.5, n_samples=n,
                                per_sample_correct=(rng.random(n) < 0.8).astype(np.int8),
                                grad_norm_pairs=np.abs(rng.normal(1.0, 0.5, (n, 2))))
        size = len(report_to_json(report))
        assert self.peak_bytes(lambda: report_to_json(report)) < 2.5 * size

    def test_written_report_peaks_at_one_chunk(self, tmp_path):
        """write_report writes each piece as it is rendered, so the same
        report peaks at 0.34 of its text, one rendering chunk's arrays;
        holding the text would take at least one."""
        rng = np.random.default_rng(15)
        n = 100_000
        report = EstimateReport(method="calibrated-gradnorm", predicted_accuracy=0.5, n_samples=n,
                                per_sample_correct=(rng.random(n) < 0.8).astype(np.int8),
                                grad_norm_pairs=np.abs(rng.normal(1.0, 0.5, (n, 2))))
        size = len(report_to_json(report))
        peak = self.peak_bytes(lambda: write_report(report, tmp_path / "r.json"))
        assert peak < 0.4 * size, f"peaked at {peak / size:.2f} of the text"


class TestNpyReader:
    """The reader keeps every message of the whole-file parser it replaced."""

    @pytest.mark.parametrize("raw, message", [
        (b"\x93NUM", "bad magic bytes, not an NPY file"),
        (b"\x93NUMPZ" + npy_bytes()[6:], "bad magic bytes, not an NPY file"),
        (npy_bytes()[:6] + bytes([2, 0]) + npy_bytes()[8:], "unsupported NPY version 2.0"),
        (npy_bytes()[:8] + (4000).to_bytes(2, "little") + npy_bytes()[10:], "truncated header"),
        (npy_bytes()[:8] + (9).to_bytes(2, "little") + b"{'descr':", "unparseable header: "),
        (npy_bytes(shape=b"(2, 2), 'x': 1"), "header must have exactly descr/fortran_order/shape"),
        (npy_bytes(descr=b"'<i4'", payload=np.zeros(4, "<i4").tobytes()),
         "unsupported dtype '<i4' (need <f4, <f8 or <i8)"),
        (npy_bytes(descr=b"[('a', '<f8'), ('b', '<f8')]", shape=b"(2,)"),  # a record array's
         "unsupported dtype [('a', '<f8'), ('b', '<f8')] (need <f4, <f8 or <i8)"),
        (npy_bytes(fortran=b"True"), "fortran_order arrays are not supported"),
        (npy_bytes(shape=b"(2, 2, 1)"), "shape must be a rank-1 or rank-2 tuple, got (2, 2, 1)"),
        (npy_bytes(shape=b"(2, -2)"), "shape must be a rank-1 or rank-2 tuple, got (2, -2)"),
        (npy_bytes(shape=b"(True, 4)"), "shape must be a rank-1 or rank-2 tuple, got (True, 4)"),
        (npy_bytes(payload=np.zeros(3, "<f8").tobytes()), "payload holds 24 bytes, header implies 32"),
        (npy_bytes(payload=b""), "payload holds 0 bytes, header implies 32"),
        (npy_bytes(payload=np.zeros(5, "<f8").tobytes()), "payload holds 40 bytes, header implies 32"),
        (npy_bytes(payload=np.zeros(4, "<f8").tobytes() + b"\n"),
         "payload holds 33 bytes, header implies 32"),
        (npy_bytes(descr=b"'<f4'", shape=b"(3,)", payload=np.zeros(2, "<f4").tobytes()),
         "payload holds 8 bytes, header implies 12"),
    ])
    def test_malformed_messages(self, tmp_path, raw, message):
        p = tmp_path / "x.npy"
        p.write_bytes(raw)
        with pytest.raises(ArrayFormatError) as info:
            read_array(p)
        assert str(info.value).startswith(f"{p}: {message}")

    @pytest.mark.parametrize("descr, values", [
        ("<f8", np.arange(12.0).reshape(3, 4) - 5.5),
        ("<f4", (np.arange(12.0).reshape(3, 4) / 8.0).astype("<f4")),
        ("<i8", np.arange(-3, 9).reshape(4, 3)),
        ("<f8", np.zeros((0, 3))),
    ])
    def test_returns_an_owned_writable_array(self, tmp_path, descr, values):
        p = tmp_path / "x.npy"
        shape = str(values.shape).encode()
        p.write_bytes(npy_bytes(descr=f"'{descr}'".encode(), shape=shape,
                                payload=np.ascontiguousarray(values, descr).tobytes()))
        got = read_array(p)
        assert got.dtype == (np.int64 if descr == "<i8" else np.float64)
        assert got.shape == values.shape
        np.testing.assert_array_equal(got, values.astype(got.dtype))
        assert got.flags.owndata and got.flags.writeable and got.flags.c_contiguous
        got[...] = 1  # the file is not mapped: writing leaves it as it was
        np.testing.assert_array_equal(read_array(p), values.astype(got.dtype))

    def test_large_payload_read_whole(self, tmp_path):
        v = np.random.default_rng(5).normal(size=(3000, 70))
        p = tmp_path / "big.npy"
        write_array(p, v)
        assert read_array(p).tobytes() == v.tobytes()


def whole_factor(f):
    """The factor as gradient_norms used to form it, on the whole matrix."""
    f = np.asarray(f, dtype=np.float64)
    return np.sqrt(np.einsum("nd,nd->n", f, f) + 1.0)


class TestFeatureReader:
    """A features file is reduced block by block to the factor the whole
    matrix gives, bit for bit, and every fault keeps its message."""

    @staticmethod
    def edge(d):
        """The rows of the first block the reader takes of a d-wide file."""
        rows = next(numerics.row_blocks(1 << 30, d))
        return rows.stop - rows.start

    @staticmethod
    def features(n, d, descr, seed=0):
        rng = np.random.default_rng([seed, n, d])
        f = rng.normal(0.0, 3.0, (n, d)) * rng.lognormal(0.0, 2.0, (n, 1))
        return np.rint(f).astype("<i8") if descr == "<i8" else f.astype(descr)

    @pytest.mark.parametrize("descr", ["<f8", "<f4", "<i8"])
    @pytest.mark.parametrize("d", [0, 1, 7, 33])
    @pytest.mark.parametrize("rows", ["one", "edge-1", "edge+1"])
    def test_npy_factor_is_the_whole_matrix_factor(self, tmp_path, descr, d, rows):
        n = {"one": 1, "edge-1": self.edge(d) - 1, "edge+1": self.edge(d) + 1}[rows]
        f = self.features(n, d, descr)
        p = tmp_path / "f.npy"
        np.save(p, f)
        got = read_features(p)
        assert isinstance(got, FeatureRows) and got.shape == (n, d)
        assert got.factor.dtype == np.float64
        assert got.factor.tobytes() == whole_factor(read_array(p)).tobytes()

    @pytest.mark.parametrize("d", [1, 7, 33])
    @pytest.mark.parametrize("n", [1, 300])
    def test_csv_factor_is_the_whole_matrix_factor(self, tmp_path, d, n):
        f = self.features(n, d, "<f8")
        p = tmp_path / "f.csv"
        p.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in f) + "\n")
        got = read_features(p)
        assert got.shape == (n, d)
        assert got.factor.tobytes() == whole_factor(f).tobytes()

    @pytest.mark.parametrize("build", ["file", "in-code"])
    def test_bundle_keeps_the_factor_alone_from_a_file(self, tmp_path, build):
        """A file leaves no features matrix on the bundle, only its
        FeatureRows; one given in code is kept as given. A replaced bundle
        derives the factor again and still checks the width."""
        n, d = self.edge(7) + 1, 7
        f = self.features(n, d, "<f8")
        p = tmp_path / "f.npy"
        np.save(p, f)
        b = load_bundle({"target_logits": np.zeros((n, 2)),
                         "target_features": str(p) if build == "file" else f})
        assert b.feature_factor.tobytes() == whole_factor(f).tobytes()
        if build == "file":
            assert isinstance(b.target_features, FeatureRows) and b.target_features.shape == (n, d)
        else:
            assert b.target_features is f
        again = dataclasses.replace(b, last_layer_bias=np.zeros(2))
        assert again.feature_factor.tobytes() == b.feature_factor.tobytes()
        with pytest.raises(BundleValidationError, match="^last_layer_weights width 6 mismatches "
                                                        "target_features width 7$"):
            dataclasses.replace(b, last_layer_weights=np.ones((2, 6)))
        assert dataclasses.replace(b, target_features=None).feature_factor is None

    @staticmethod
    def fault_cases():
        """(features file, logits rows, weights or None, message) per fault."""
        edge = TestFeatureReader.edge(4)
        n = 2 * edge + 5
        cases = {}
        f = TestFeatureReader.features(n, 4, "<f8")
        f[-1, 3] = np.nan  # the last row of the last block
        cases["nan-last-block"] = (f, n, None, "{path}: contains NaN or Inf entries")
        cases["rank-1"] = (np.ones(n), n, None, f"target_features must be 2-D, got shape ({n},)")
        cases["rows"] = (np.ones((n - 1, 4)), n, None,
                         f"target_features has {n - 1} rows but target_logits has {n}")
        cases["width"] = (np.ones((n, 4)), n, np.ones((3, 5)),
                          "last_layer_weights width 5 mismatches target_features width 4")
        cases["bad-magic"] = (b"\x93NUMPZ" + npy_bytes()[6:], 2, None,
                              "{path}: bad magic bytes, not an NPY file")
        cases["truncated"] = (npy_bytes(shape=b"(2, 2)", payload=np.zeros(3, "<f8").tobytes()), 2,
                              None, "{path}: payload holds 24 bytes, header implies 32")
        return cases

    @pytest.mark.parametrize("fault", ["nan-last-block", "rank-1", "rows", "width", "bad-magic",
                                       "truncated"])
    def test_faults_keep_their_messages_and_exit_2(self, tmp_path, capsys, fault):
        features, n, weights, message = self.fault_cases()[fault]
        p = tmp_path / "f.npy"
        if isinstance(features, bytes):
            p.write_bytes(features)
        else:
            np.save(p, features)
        message = message.format(path=p)
        z = tmp_path / "z.npy"
        np.save(z, np.zeros((n, 3)))
        manifest = {"target_logits": str(z), "target_features": str(p)}
        argv = ["predict", "--logits", str(z), "--features", str(p)]
        if weights is not None:
            np.save(tmp_path / "w.npy", weights)
            manifest["last_layer_weights"] = str(tmp_path / "w.npy")
            argv += ["--weights", str(tmp_path / "w.npy")]
        with pytest.raises((ArrayFormatError, BundleValidationError)) as info:
            load_bundle(manifest)
        assert str(info.value) == message
        assert cli.main([*argv, "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_overflowing_factor_names_the_first_row(self, tmp_path):
        """Finite features whose squared norm overflows give no finite factor:
        refused in code and from a file, at the first such row."""
        f = np.ones((5, 3))
        f[[2, 4]] = 1e200
        with pytest.raises(BundleValidationError) as in_code:
            DatasetBundle(target_logits=np.zeros((5, 2)), class_count=2, target_features=f)
        np.save(tmp_path / "f.npy", f)
        with pytest.raises(BundleValidationError) as loaded:
            load_bundle({"target_logits": np.zeros((5, 2)), "target_features": tmp_path / "f.npy"})
        assert str(in_code.value) == str(loaded.value) == (
            "target_features row 2: sqrt(||f||^2 + 1) is not finite")

    def test_nan_in_code_names_its_row(self):
        """A file's NaN is refused by the reader; one built in code by its factor."""
        f = np.ones((4, 3))
        f[3, 1] = np.nan
        with pytest.raises(BundleValidationError,
                           match=r"^target_features row 3: sqrt\(\|\|f\|\|\^2 \+ 1\) is not finite$"):
            DatasetBundle(target_logits=np.zeros((4, 2)), class_count=2, target_features=f)

    def test_normal_features_keep_their_bits_near_the_limit(self):
        """1e153 squared is finite, so the factor is; only the overflow is refused."""
        f = np.full((2, 4), 1e153)
        b = DatasetBundle(target_logits=np.zeros((2, 2)), class_count=2, target_features=f)
        assert b.feature_factor.tobytes() == whole_factor(f).tobytes()
