import contextlib
import csv
import io
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abharmonic import audit, cli
from abharmonic._quad import circle_nodes
from abharmonic.boundary import load
from abharmonic.bounds import HolderPair, distortion_constant
from abharmonic.cli import main
from abharmonic.errors import ParameterError
from abharmonic.harmonic import poisson_extension
from abharmonic.kernel import make_params


@pytest.fixture
def constant_boundary(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"fourier": {"0": [1.0, 0.0]}}))
    return str(path)


@pytest.fixture
def mode_boundary(tmp_path):
    path = tmp_path / "mode.json"
    path.write_text(json.dumps({"fourier": {"1": [1.0, 0.0]}}))
    return str(path)


def _mode_samples(k, n, const=0.0):
    """[re, im] samples of const + e^{ikt} on n points."""
    return [[const + math.cos(2 * math.pi * k * j / n), math.sin(2 * math.pi * k * j / n)] for j in range(n)]


def _strip_timestamp(text: str) -> str:
    doc = json.loads(text)
    doc.pop("timestamp", None)
    return json.dumps(doc, sort_keys=True)


class TestSolve:
    def test_constant_unweighted_is_one_everywhere(self, constant_boundary, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["solve", constant_boundary, "--grid", "4x8", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,y,re,im"
        assert len(lines) == 1 + 4 * 8
        for line in lines[1:]:
            x, y, re, im = map(float, line.split(","))
            assert re == pytest.approx(1.0, abs=1e-10)
            assert im == pytest.approx(0.0, abs=1e-10)

    def test_first_mode_unweighted_is_identity(self, mode_boundary, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["solve", mode_boundary, "--grid", "3x4", "--out", str(out)]) == 0
        for line in out.read_text().strip().splitlines()[1:]:
            x, y, re, im = map(float, line.split(","))
            assert re == pytest.approx(x, abs=1e-10)
            assert im == pytest.approx(y, abs=1e-10)

    def test_constant_general_weights_radial_profile(self, constant_boundary, tmp_path):
        from abharmonic.kernel import make_params
        from abharmonic.specfun import gauss_2f1

        out = tmp_path / "grid.csv"
        code = main(
            ["solve", constant_boundary, "--alpha", "0.5", "--beta", "0.5", "--grid", "3x4", "--out", str(out)]
        )
        assert code == 0
        p = make_params(0.5, 0.5)
        for line in out.read_text().strip().splitlines()[1:]:
            x, y, re, im = map(float, line.split(","))
            r2 = x * x + y * y
            expected = p.c_norm * gauss_2f1((-0.5, -0.5, 1.0), r2)
            assert re == pytest.approx(expected, abs=1e-10)

    def test_invalid_parameters_exit_2(self, constant_boundary):
        assert main(["solve", constant_boundary, "--alpha", "-1", "--beta", "0"]) == 2

    def test_sum_constraint_exit_2(self, constant_boundary):
        assert main(["solve", constant_boundary, "--alpha", "-0.6", "--beta", "-0.6"]) == 2

    def test_missing_file_exit_3(self, tmp_path):
        assert main(["solve", str(tmp_path / "absent.json")]) == 3

    def test_malformed_file_exit_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"fourier\": {\"x\": [1, 0]}}")
        assert main(["solve", str(bad)]) == 3

    @pytest.mark.parametrize(
        "order, nodes, needed", [(4095, 4096, 8192), (2048, 4096, 8192), (32, 64, 128), (4096, 4096, 16384)]
    )
    def test_order_at_half_the_nodes_exit_3(self, tmp_path, capsys, order, nodes, needed):
        # on n nodes mode k is mode k - n: at 4,096 nodes e^{4095 it} would
        # print the extension of e^{-it}, u = r at r = 0.15835, for
        # u = r^4095; the message names the order and the node count
        doc = tmp_path / "alias.json"
        doc.write_text(json.dumps({"fourier": {str(order): [1, 0]}}))
        out = tmp_path / "grid.csv"
        out.write_text("kept")
        argv = ["solve", str(doc), "--grid", "1x1", "--rmax", "0.3167", "--out", str(out)]
        assert main([*argv, "--nodes", str(nodes)]) == 3
        err = capsys.readouterr().err
        assert f"order {order}" in err and f"nodes >= {needed}" in err
        assert out.read_text() == "kept"
        assert main([*argv, "--nodes", str(needed)]) == 0
        x, y, re, im = map(float, out.read_text().splitlines()[1].split(","))
        assert (x, y) == (0.15835, 0.0)
        assert abs(complex(re, im) - x**order) <= 1e-13

    def test_order_below_half_the_nodes_exit_0(self, tmp_path):
        doc = tmp_path / "high.json"
        doc.write_text(json.dumps({"fourier": {"2047": [1, 0], "-2047": [0, 1]}}))
        assert main(["solve", str(doc), "--grid", "1x4", "--out", str(tmp_path / "grid.csv")]) == 0
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps({"samples": [[math.cos(j), 0.0] for j in range(64)]}))
        assert main(["solve", str(samples), "--nodes", "64", "--out", str(tmp_path / "s.csv")]) == 0

    def test_bad_grid_exit_2(self, constant_boundary):
        assert main(["solve", constant_boundary, "--grid", "axb"]) == 2


class TestExpand:
    def test_coefficients_document(self, mode_boundary, tmp_path, capsys):
        out = tmp_path / "coeffs.json"
        code = main(["expand", mode_boundary, "--alpha", "0.5", "--beta", "0.5", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        re, im = doc["coefficients"]["1"]
        assert re == pytest.approx(1.1780972450961724644, rel=1e-12)
        assert im == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize(
        "fourier, samples, code",
        [
            # 1 + e^{it} against the constant 1, and mode 40 against zeros: exit 3
            ({"0": [1, 0]}, _mode_samples(1, 16, 1.0), 3),
            ({"40": [1, 0]}, [[0.0, 0.0]] * 64, 3),
            # mode 40 against its own samples: loads
            ({"40": [1, 0]}, _mode_samples(40, 64), 0),
        ],
    )
    def test_fourier_and_samples_must_agree(self, tmp_path, fourier, samples, code):
        path = tmp_path / "both.json"
        path.write_text(json.dumps({"fourier": fourier, "samples": samples}))
        assert main(["expand", str(path), "--out", str(tmp_path / "coeffs.json")]) == code


class TestBounds:
    def test_unweighted_report_contains_classical_constants(self, tmp_path):
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--p", "inf", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        values = {e["name"]: e["value"] for e in doc["report"]["entries"]}
        assert values["heinz_lower_bound"] == pytest.approx(27 / (4 * math.pi**2), rel=1e-12)
        assert values["omit_radius_normalized_class"] == pytest.approx(
            2 * math.pi * math.sqrt(3) / 9, rel=1e-12
        )
        assert values["covering_radius"] == pytest.approx(1 / 16, rel=1e-12)
        assert values["area_lower_bound"] == pytest.approx(math.pi / 2, rel=1e-12)
        assert values["means_radial_sup"] == pytest.approx(4 / math.pi, abs=1e-10)
        assert values["means_wirtinger_sup"] == pytest.approx(1.0, rel=1e-12)
        assert doc["report"]["flagged"] == ["growth_sup_reference"]

    def test_general_weights_report_well_formed(self, tmp_path):
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--alpha", "1", "--beta", "1", "--p", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["alpha"] == 1.0 and doc["p"] == 2.0
        assert all(math.isfinite(e["value"]) for e in doc["report"]["entries"])

    def test_invalid_weights_exit_2(self):
        assert main(["bounds", "--alpha", "-1", "--beta", "0"]) == 2

    @pytest.mark.xfail(
        strict=True,
        reason="gauss_2f1_at_one forms Gamma(1 + 2m) with m near 105 at p = 1.01, which overflows",
    )
    def test_p_near_one_exit_0(self, tmp_path):
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--alpha", "0.3", "--beta=-0.2", "--p", "1.01", "--out", str(out)]) == 0


class TestAudit:
    def test_identities_suite_passes(self, tmp_path):
        out = tmp_path / "audit.json"
        code = main(["audit", "--suite", "identities", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["violations"] == 0
        assert all(r["passed"] for r in doc["results"])

    def test_identities_alias(self, tmp_path):
        out = tmp_path / "audit.json"
        assert main(["identities", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["suite"] == "identities"

    def test_unknown_suite_exit_2(self):
        assert main(["audit", "--suite", "nonsense"]) == 2

    def test_growth_suite_small(self, tmp_path):
        out = tmp_path / "audit.json"
        code = main(
            ["audit", "--suite", "growth", "--alpha", "0.5", "--beta", "0.5", "--nodes", "1024", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["results"][0]["margins"], "per-case margins belong in the report"

    def test_margins_csv(self, tmp_path):
        out = tmp_path / "audit.json"
        margins = tmp_path / "margins.csv"
        code = main(
            [
                "audit", "--suite", "identities", "--nodes", "1024",
                "--out", str(out), "--csv", str(margins),
            ]
        )
        assert code == 0
        lines = margins.read_text().strip().splitlines()
        assert lines[0] == "case,r,margin"
        assert len(lines) > 10

    @pytest.mark.parametrize("beta", ["-0.8", "-1.5"])
    @pytest.mark.parametrize("suite", ["all", "distortion"])
    def test_undefined_distortion_constant_is_not_applicable(self, tmp_path, suite, beta):
        # at p = 2 the distortion moment diverges for beta = -0.8, and the
        # estimate needs beta > -1; the audit reports distortion with no
        # case and bounds' reason, as not applicable, and exits 0
        with pytest.raises(ParameterError) as refusal:
            distortion_constant(make_params(1.0, float(beta)), HolderPair.from_p(2.0), 0.3, 256)
        out = tmp_path / "audit.json"
        args = ["audit", "--suite", suite, "--alpha", "1", f"--beta={beta}", "--p", "2"]
        assert main(args + ["--nodes", "256", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        names = [r["name"] for r in doc["results"]]
        (distortion,) = [r for r in doc["results"] if r["name"] == "distortion"]
        assert distortion["cases_total"] == distortion["cases_violated"] == 0
        assert distortion["passed"] is None and distortion["applicable"] is False
        assert distortion["notes"] == [str(refusal.value)] and distortion["margins"] == []
        assert ("partials" in names) == (suite == "all")
        # every result with cases keeps its fields: no "applicable" key
        for res in doc["results"]:
            assert ("applicable" in res) == (res["cases_total"] == 0), res["name"]
        assert doc["violations"] == 0

    def test_ratio_lemma_without_regime_is_not_applicable(self, tmp_path):
        # no stated F-ratio regime applies at (0.3, -0.2): the merged result
        # of k = 2, 3 and 5 has no case and gives its reason once
        out = tmp_path / "audit.json"
        args = ["audit", "--suite", "lemmas", "--alpha", "0.3", "--beta=-0.2", "--p", "inf"]
        assert main(args + ["--out", str(out)]) == 0
        ratio, oscillatory = json.loads(out.read_text())["results"]
        assert ratio["name"] == "hypergeometric_ratio_lemma"
        assert ratio["cases_total"] == 0
        assert ratio["passed"] is None and ratio["applicable"] is False
        assert ratio["notes"] == ["no stated F-ratio regime applies at (0.3, -0.2)"]
        assert oscillatory["cases_total"] > 0 and oscillatory["passed"] is True
        assert "applicable" not in oscillatory

    def test_nan_margin_written_as_null(self, tmp_path, monkeypatch):
        def planted(*args, check=audit.check_growth, **kwargs):
            res = check(*args, **kwargs)
            case, r, _ = res.details[0]
            return audit._collect(res.name, [(case, r, math.nan), *res.details[1:]], res.tolerance)

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        monkeypatch.setattr(audit, "check_growth", planted)
        out = tmp_path / "audit.json"
        assert main(["audit", "--suite", "growth", "--nodes", "256", "--out", str(out)]) == 1
        doc = json.loads(out.read_text(), parse_constant=refuse)
        (growth,) = doc["results"]
        # one planted case per boundary, each counted as violated
        assert doc["violations"] == growth["cases_violated"] == 10
        assert growth["worst_margin"] is None and growth["margins"][0][2] is None

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["audit", "--suite", "identities", "--seed", "5", "--nodes", "1024"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert _strip_timestamp(out1.read_text()) == _strip_timestamp(out2.read_text())

    @pytest.mark.parametrize("p", ["700", "1e308"])
    def test_large_finite_p_passes(self, tmp_path, p):
        # the boundary L^p norms stay finite and nonzero at large p
        args = ["audit", "--suite", "all", "--alpha", "0.3", "--beta=-0.2", "--p", p, "--nodes", "64"]
        assert main(args + ["--out", str(tmp_path / "audit.json")]) == 0

    def test_bounds_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["bounds", "--alpha", "0.3", "--beta", "-0.2", "--p", "4"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert _strip_timestamp(out1.read_text()) == _strip_timestamp(out2.read_text())


# CSV fields: floats at the edges of their range and non-finite ones, strings
# that csv.writer must quote, the empty string, None, a numpy float and ints
CSV_FLOATS = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308])
)
CSV_FIELDS = st.one_of(
    CSV_FLOATS,
    st.sampled_from(["", 'a,"b"\r\nc', ",", '"', "\r", "\n", " a "]),
    st.text(st.sampled_from(',"\r\n a'), max_size=4),
    st.none(),
    st.floats().map(np.float64),
    st.integers(),
)

# (width, blocks): up to three blocks of rows of that many fields, each block
# all floats or fields of any kind
CSV_BLOCKS = st.integers(1, 4).flatmap(
    lambda width: st.tuples(
        st.just(width),
        st.lists(
            st.sampled_from([CSV_FLOATS, CSV_FIELDS]).flatmap(
                lambda fields: st.lists(st.lists(fields, min_size=width, max_size=width), max_size=4)
            ),
            max_size=3,
        ),
    )
)


def _csv_bytes(header, rows) -> bytes:
    """What csv.writer writes for header and rows, each float to 17
    significant digits: the CSV text abharmonic has always written."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue().encode()


class TestCsvOutput:
    """Both CSV layouts come from cli._csv_chunks, which formats a block of
    float columns in one pass and any other block through csv.writer.  Its
    bytes are csv.writer's with every float written f"{v:.17g}": 17
    significant digits, which read back exactly, and None as an empty field."""

    @staticmethod
    def _rows(path):
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))

    @pytest.fixture(scope="class")
    def solve_docs(self, tmp_path_factory):
        # an order-2 Fourier document and 4,096 random samples read through JSON
        root = tmp_path_factory.mktemp("solve")
        rng = np.random.default_rng(4096)
        docs = {
            "fourier": {"fourier": {"0": [0.5, 0.0], "1": [1.0, -0.3], "-2": [0.0, 0.25]}},
            "samples": {"samples": rng.normal(size=(4096, 2)).tolist()},
        }
        for kind, doc in docs.items():
            (root / f"{kind}.json").write_text(json.dumps(doc))
        return root

    @pytest.mark.parametrize("kind", ["fourier", "samples"])
    @pytest.mark.parametrize(
        "grid, rmax",
        [("1x1", 0.95), ("3x7", 0.95), ("4x60", 0.95), ("8x32", 0.95), ("2x8192", 0.95), ("3x7", 0.99)],
    )
    def test_solve_bytes_are_csv_writer_bytes(self, solve_docs, kind, grid, rmax, tmp_path, capsys):
        doc, out = solve_docs / f"{kind}.json", tmp_path / "grid.csv"
        args = ["solve", str(doc), "--alpha", "0.3", "--beta=-0.2", "--grid", grid, "--rmax", repr(rmax)]
        assert main(args + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(args) == 0
        stdout = capsys.readouterr().out.encode()
        # the rows as solve has always made them: ring by ring, each point a numpy scalar
        u = poisson_extension(make_params(0.3, -0.2), load(doc))
        nr, nt = (int(n) for n in grid.split("x"))
        rows = []
        for i in range(nr):
            r = (i + 1) / (nr + 1) * rmax
            for z, v in zip(r * np.exp(1j * circle_nodes(nt)), u.circle_values(r, nt)):
                rows.append((z.real, z.imag, v.real, v.imag))
        expected = _csv_bytes(("x", "y", "re", "im"), rows)
        assert stdout == expected
        assert out.read_bytes() == expected

    @given(CSV_BLOCKS)
    @settings(max_examples=200, deadline=None)
    def test_writer_is_csv_writer(self, width_blocks):
        # blocks of rows, handed to the writer as columns
        width, blocks = width_blocks
        header = tuple("abcd"[:width])
        chunks = cli._csv_chunks(header, ([list(c) for c in zip(*rows)] for rows in blocks))
        assert "".join(chunks).encode() == _csv_bytes(header, [row for rows in blocks for row in rows])

    def test_solve_rows_are_the_rings(self, tmp_path, capsys):
        doc = tmp_path / "f.json"
        doc.write_text(json.dumps({"fourier": {"0": [0.5, 0.0], "1": [1.0, -0.3], "-2": [0.0, 0.25]}}))
        out = tmp_path / "grid.csv"
        args = ["solve", str(doc), "--alpha", "0.3", "--beta=-0.2", "--grid", "3x8", "--nodes", "256"]
        assert main(args + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()
        header, *rows = self._rows(out)
        assert header == ["x", "y", "re", "im"]
        assert len(rows) == 3 * 8
        u = poisson_extension(make_params(0.3, -0.2), load(doc), 256)
        for i in range(3):
            r = (i + 1) / 4 * 0.95
            points, values = r * np.exp(1j * circle_nodes(8)), u.circle_values(r, 8)
            for row, z, v in zip(rows[8 * i : 8 * (i + 1)], points, values):
                assert [float(x) for x in row] == [z.real, z.imag, v.real, v.imag]

    def test_audit_rows_are_the_report_margins(self, tmp_path):
        # the ratio lemma's cases (a regime applies at alpha < 0) have no radius
        out, margins = tmp_path / "audit.json", tmp_path / "margins.csv"
        args = ["audit", "--suite", "lemmas", "--alpha=-0.25", "--beta=-0.5"]
        assert main(args + ["--out", str(out), "--csv", str(margins)]) == 0
        results = json.loads(out.read_text())["results"]
        expected = [m for res in results for m in res["margins"]]
        header, *rows = self._rows(margins)
        assert header == ["case", "r", "margin"]
        assert len(rows) == len(expected) == sum(res["cases_total"] for res in results)
        for (case, r, margin), (want_case, want_r, want_margin) in zip(rows, expected):
            assert case == want_case
            assert (r == "") == (want_r is None) == case.startswith(("Fk/F1", "Ek"))
            assert r == "" or float(r) == want_r
            assert float(margin) == want_margin
        assert any(r == "" for _, r, _ in rows) and any(r != "" for _, r, _ in rows)
        # every margin is finite, so the JSON holds each as it was computed
        assert all(m is not None for _, _, m in expected)
        assert margins.read_bytes() == _csv_bytes(("case", "r", "margin"), expected)

    _AUDIT = ["audit", "--suite", "growth", "--nodes", "256"]

    def test_audit_outputs_keep_their_mode(self, tmp_path):
        # a replaced output keeps the old file's mode, and a new one gets
        # the mode open gives a new file
        out, margins, plain = tmp_path / "a.json", tmp_path / "m.csv", tmp_path / "plain"
        plain.write_text("")
        out.write_text("")
        out.chmod(0o600)
        assert main(self._AUDIT + ["--out", str(out), "--csv", str(margins)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert stat.S_IMODE(margins.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)

    @pytest.mark.parametrize("option", ["--out", "--csv"])
    def test_audit_writes_through_a_device(self, tmp_path, option):
        # os.devnull is written through, not replaced by a regular file
        paths = {"--out": str(tmp_path / "a.json"), "--csv": str(tmp_path / "m.csv")}
        paths[option] = os.devnull
        assert main(self._AUDIT + [a for item in paths.items() for a in item]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        if option == "--out":
            assert (tmp_path / "m.csv").read_text().startswith("case,r,margin")
        else:
            assert json.loads((tmp_path / "a.json").read_text())["results"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json" if option == "--csv" else "m.csv"]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_audit_writes_through_a_pipe(self, tmp_path):
        # the /dev/fd/N path a shell's process substitution passes; the
        # text is far below a pipe's buffer, so nothing blocks
        margins = tmp_path / "m.csv"
        assert main(self._AUDIT + ["--csv", str(margins)]) == 0
        r, w = os.pipe()
        try:
            assert main(self._AUDIT + ["--out", str(tmp_path / "a.json"), "--csv", f"/dev/fd/{w}"]) == 0
        finally:
            os.close(w)
        with open(r, "rb") as fh:
            assert fh.read() == margins.read_bytes()

    def test_audit_writes_through_a_symlink(self, tmp_path):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("")
        link.symlink_to(real)
        assert main(self._AUDIT + ["--out", str(tmp_path / "a.json"), "--csv", str(link)]) == 0
        assert link.is_symlink()
        assert real.read_text().startswith("case,r,margin")

    def test_audit_refuses_a_read_only_output(self, tmp_path):
        out, margins = tmp_path / "a.json", tmp_path / "m.csv"
        out.write_text("keep")
        out.chmod(0o444)
        if os.access(out, os.W_OK):
            pytest.skip("this user may write a read-only file")
        assert main(self._AUDIT + ["--out", str(out), "--csv", str(margins)]) == 3
        assert out.read_text() == "keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["solve", "{doc}", "--rmax=-0.5", "--out", "{out}"], 2),
            (["solve", "{doc}", "--rmax", "inf", "--out", "{out}"], 2),
            (["solve", "{missing}", "--out", "{out}"], 3),
            (["bounds", "--p", "0.5", "--out", "{out}"], 2),
            (["audit", "--suite", "growth", "--alpha", "-1", "--out", "{out}", "--csv", "{out}"], 2),
            # an output that cannot be written leaves the other as it was
            (["audit", "--suite", "growth", "--nodes", "256", "--out", "{out}", "--csv", "{nodir}"], 3),
            (["audit", "--suite", "growth", "--nodes", "256", "--out", "{nodir}", "--csv", "{out}"], 3),
            (["audit", "--suite", "growth", "--nodes", "256", "--out", "{out}", "--csv", "{dir}"], 3),
        ],
    )
    def test_failing_command_leaves_output_untouched(self, tmp_path, constant_boundary, argv, code):
        out = tmp_path / "keep.csv"
        out.write_bytes(b"x,y\r\n1,2\r\n")
        paths = {
            "doc": constant_boundary,
            "missing": str(tmp_path / "absent.json"),
            "out": str(out),
            "nodir": str(tmp_path / "nodir" / "m.csv"),
            "dir": str(tmp_path),
        }
        assert main([a.format(**paths) for a in argv]) == code
        assert out.read_bytes() == b"x,y\r\n1,2\r\n"
        # and no temporary file is left behind
        assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.csv", "one.json"]


class TestAllOrNone:
    """Every command writes its outputs through cli._write_outputs: a
    regular file is written beside its target and replaces it only once
    written in full."""

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no preexec_fn")
    @pytest.mark.parametrize("command", ["bounds", "expand", "solve"])
    def test_failed_write_leaves_output_untouched(self, command, tmp_path):
        # the child may write at most FSIZE bytes to any file; Python
        # ignores SIGXFSZ, so a longer write fails with EFBIG
        resource = pytest.importorskip("resource")
        fsize = 1024
        doc = tmp_path / "f.json"
        doc.write_text(json.dumps({"fourier": {str(k): [1 / (1 + abs(k)), 0.0] for k in range(-20, 21)}}))
        out = tmp_path / "keep.out"
        out.write_bytes(b'{"keep": true}\n')
        argv = {
            "bounds": ["bounds", "--alpha", "0.3", "--beta=-0.2", "--p", "3"],
            "expand": ["expand", str(doc), "--alpha", "0.3", "--beta=-0.2"],
            "solve": ["solve", str(doc), "--alpha", "0.3", "--beta=-0.2", "--grid", "4x32", "--nodes", "256"],
        }[command]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            "PYTHONDONTWRITEBYTECODE": "1",
        }
        proc = subprocess.run(
            [sys.executable, "-m", "abharmonic.cli", *argv, "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (fsize, fsize)),
        )
        assert proc.returncode == 3, proc.stderr
        assert out.read_bytes() == b'{"keep": true}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json", "keep.out"]
        # the message names the output, not its temporary file
        assert "Traceback" not in proc.stderr
        assert str(out) in proc.stderr and ".tmp" not in proc.stderr
        # unlimited, the same command writes more than the limit
        proc = subprocess.run(
            [sys.executable, "-m", "abharmonic.cli", *argv, "--out", str(out)], env=env, timeout=120
        )
        assert proc.returncode == 0
        assert out.stat().st_size > fsize

    def test_links_stay_links(self, tmp_path):
        # through a chain of links and through a linked directory the file
        # is replaced, and each link is left as it was
        real_dir = tmp_path / "real"
        real_dir.mkdir()
        real = real_dir / "r.json"
        real.write_text("")
        link, chain, linked_dir = tmp_path / "link.json", tmp_path / "chain.json", tmp_path / "dir"
        link.symlink_to(real)
        chain.symlink_to(link)
        linked_dir.symlink_to(real_dir)
        args = ["bounds", "--alpha", "0.3", "--beta=-0.2", "--p", "3"]
        for out in (chain, linked_dir / "d.json"):
            assert main(args + ["--out", str(out)]) == 0
        assert chain.is_symlink() and link.is_symlink() and linked_dir.is_symlink()
        assert sorted(p.name for p in real_dir.iterdir()) == ["d.json", "r.json"]
        assert json.loads(real.read_text())["alpha"] == json.loads((real_dir / "d.json").read_text())["alpha"] == 0.3

    def test_solve_writes_block_by_block(self, tmp_path, monkeypatch, capsys):
        # 4 x 32 points in blocks of 8: a header chunk and 16 block chunks,
        # each drawn only once the writer has taken the one before
        doc = tmp_path / "f.json"
        doc.write_text(json.dumps({"fourier": {"0": [0.5, 0.0], "1": [1.0, -0.3], "-2": [0.0, 0.25]}}))
        args = ["solve", str(doc), "--alpha", "0.3", "--beta=-0.2", "--grid", "4x32", "--nodes", "256"]
        assert main(args) == 0
        whole = capsys.readouterr().out

        monkeypatch.setattr(cli, "_CSV_BLOCK", 8)
        drawn, written = [], []
        csv_chunks = cli._csv_chunks

        def chunks(header, blocks):
            for chunk in csv_chunks(header, blocks):
                # while the output's temporary file is open, for --out
                drawn.append([p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")])
                yield chunk

        class Stdout:
            def writelines(self, lines):
                for chunk in lines:
                    assert len(drawn) == len(written) + 1
                    written.append(chunk)

        monkeypatch.setattr(cli, "_csv_chunks", chunks)
        monkeypatch.setattr(sys, "stdout", Stdout())
        assert main(args) == 0
        assert len(written) == 1 + 4 * 32 // 8
        assert "".join(written) == whole

        drawn.clear()
        out = tmp_path / "grid.csv"
        assert main(args + ["--out", str(out)]) == 0
        assert len(drawn) == 1 + 4 * 32 // 8
        assert all(len(tmps) == 1 for tmps in drawn)
        assert out.read_bytes() == whole.encode()


def _nulled(obj):
    """obj with every non-finite float replaced by None, tuples as lists."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _nulled(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nulled(v) for v in obj]
    return obj


# non-ASCII, quotes, backslashes and control characters
JSON_STRINGS = st.one_of(
    st.text(), st.sampled_from(['"', "\\", "\x00\x1f\n\t", "é", "\u2028", "\U0001f600"])
)
JSON_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, math.nan, math.inf, -math.inf]),
)
JSON_LEAVES = st.one_of(
    JSON_STRINGS, st.integers(-(2**80), 2**80), st.booleans(), st.none(), JSON_FLOATS
)
JSON_OBJECTS = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(JSON_STRINGS, children, max_size=5),
    ),
    max_leaves=40,
)


class TestJsonText:
    """cli._json_text writes the bytes of json.dumps(indent=2), with every
    non-finite float as null."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(JSON_OBJECTS)
    def test_text_is_json_dumps(self, obj):
        assert cli._json_text(obj, 2) == json.dumps(_nulled(obj), indent=2, allow_nan=False)

    def test_numpy_float_is_a_float(self):
        obj = {"a": np.float64(0.1), "b": [np.float64(math.nan), np.float64(-0.0)]}
        expected = json.dumps({"a": 0.1, "b": [None, -0.0]}, indent=2)
        assert cli._json_text(obj, 2) == expected

    @pytest.mark.parametrize("leaf", [np.int64(3), np.bool_(True), object()])
    def test_what_json_rejects_raises(self, leaf):
        with pytest.raises(TypeError):
            json.dumps(leaf)
        with pytest.raises(TypeError):
            cli._json_text({"a": [leaf]}, 2)
        with pytest.raises(TypeError):
            cli._json_text(leaf, 2)

    def test_keys_convert_as_json_does(self):
        obj = {1: 0, 2.5: 1, True: 2, None: 3, "x": 4}
        assert cli._json_text(obj, 2) == json.dumps(obj, indent=2)
        with pytest.raises(TypeError):
            cli._json_text({(1,): 0}, 2)
        with pytest.raises(ValueError):
            cli._json_text({math.nan: 0}, 2)


class TestParsing:
    @pytest.mark.parametrize("token", ["inf", "INF", " inf ", "Infinity"])
    def test_p_inf_token(self, tmp_path, token):
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--p", token, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["p"] == "inf"

    def test_p_bad_token(self):
        assert main(["bounds", "--p", "huge"]) == 2

    def test_no_command_exit_2(self):
        assert main([]) == 2


def _run(argv):
    """Exit code, stdout (a JSON document without its timestamp) and stderr of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    return code, _strip_timestamp(text) if text.startswith("{") else text, err.getvalue()


class TestParserCache:
    SEQUENCE = [
        ["bounds", "--alpha", "0.3", "--beta=-0.2", "--p", "3"],
        ["bounds", "--nodes", "banana"],
        ["--help"],
        ["identities"],
        ["audit", "--suite", "growth"],
        ["bounds", "--alpha", "0.3", "--beta=-0.2", "--p", "3"],
    ]

    def test_warm_parser_gives_cold_outputs(self):
        cold = []
        for argv in self.SEQUENCE:
            cli._parser.cache_clear()
            cold.append(_run(argv))
        cli._parser.cache_clear()
        warm = [_run(argv) for argv in self.SEQUENCE]
        assert [c[0] for c in cold] == [0, 2, 0, 0, 0, 0]
        assert warm == cold

    def test_no_defaults_leak_between_calls(self, monkeypatch):
        suites = []
        monkeypatch.setattr(cli, "cmd_audit", lambda args: suites.append(args.suite) or 0)
        assert main(["identities"]) == 0
        assert main(["audit"]) == 0
        assert main(["identities"]) == 0
        assert suites == ["identities", "all", "identities"]

    def test_parser_built_once(self, monkeypatch):
        build, builds = cli.build_parser, []

        def counted_build():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted_build)
        monkeypatch.setattr(cli, "cmd_bounds", lambda args: 0)
        cli._parser.cache_clear()
        try:
            argvs = (["bounds"], ["bounds", "--p", "4"], ["bounds", "--nodes", "3"], ["bounds"])
            codes = [_run(argv)[0] for argv in argvs]
        finally:
            cli._parser.cache_clear()
        assert codes == [0, 0, 2, 0]
        assert len(builds) == 1

    def test_handler_replaced_after_first_call_runs(self, monkeypatch):
        assert _run(["bounds", "--nodes", "64"])[0] == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_bounds", lambda args: seen.append(args.p) or 0)
        assert main(["bounds", "--p", "4"]) == 0
        assert seen == [4.0]


class TestInputBoundary:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--nodes", "0"],
            ["bounds", "--nodes", "100"],
            ["bounds", "--alpha", "inf"],
            ["bounds", "--alpha", "1e6", "--beta", "1e6"],
            ["bounds", "--p", "nan"],
            ["bounds", "--p=-inf"],
            ["audit", "--seed", "-1"],
            ["solve", "BOUNDARY", "--rmax", "nan"],
            ["solve", "BOUNDARY", "--rmax", "-0.5"],
        ],
    )
    def test_bad_input_exits_2_without_traceback(self, argv, constant_boundary, capsys):
        argv = [constant_boundary if a == "BOUNDARY" else a for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["expand", "solve"])
    @pytest.mark.parametrize(
        "text",
        [
            '{"fourier": {"0": [NaN, 0.0], "1": [1.0, 0.0]}}',
            '{"samples": [[Infinity, 0.0]' + ", [1.0, 0.0]" * 63 + "]}",
            '{"fourier": {"0": [1' + "0" * 400 + ", 0.0]}}",
        ],
        ids=["nan-fourier", "infinity-sample", "overflowing-int"],
    )
    def test_non_finite_entry_exits_3(self, command, text, tmp_path, capsys):
        doc = tmp_path / "bad.json"
        doc.write_text(text)
        out = tmp_path / "out"
        assert main([command, str(doc), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert "error:" in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", ["expand", "solve"])
    @pytest.mark.parametrize(
        "data",
        [
            b'{"fourier": {"0": [1.0, 0.0]}, "note": "\xff\xfe"}',
            b'{"z": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        ],
        ids=["not-utf-8", "nested-too-deeply"],
    )
    def test_undecodable_file_exits_3(self, command, data, tmp_path, capsys):
        doc = tmp_path / "bad.json"
        doc.write_bytes(data)
        out = tmp_path / "out"
        assert main([command, str(doc), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert "error: cannot read boundary file" in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()


@pytest.fixture(scope="module")
def boundary_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("docs") / "doc.json"
    path.write_text(json.dumps({"fourier": {"0": [0.5, 0.0], "1": [1.0, -0.5], "-2": [0.2, 0.1]}}))
    return str(path)


# ordinary values, or non-finite, huge and near-pole ones (Gamma poles at
# -1 and -2, alpha + beta = -1), written as the user would type them
WEIGHTS = st.one_of(
    st.floats(-0.45, 3.0).map(repr),
    st.sampled_from(
        ["nan", "inf", "-inf", "1e308", "-1e308", "-0.9999999999", "-1.0000000001", "-1.9999999999"]
    ),
)
EXPONENTS = st.one_of(
    st.floats(1.0, 10.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "1", "1.0000001", "0.999", "-1"]),
)
RADII = st.one_of(
    st.floats(0.0, 0.99).map(repr),
    st.sampled_from(["nan", "inf", "-0.5", "0.9999999", "1", "2"]),
)


class TestArgumentProperties:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        command=st.sampled_from(["bounds", "identities", "solve"]),
        alpha=WEIGHTS,
        beta=WEIGHTS,
        p=EXPONENTS,
        seed=st.integers(-3, 2**40),
        rmax=RADII,
        grid=st.tuples(st.integers(0, 3), st.integers(0, 6)),
    )
    def test_exit_code_contract(self, boundary_doc, command, alpha, beta, p, seed, rmax, grid):
        """Every run exits 0-3 without a traceback, exits 1 exactly when the
        audit counts violations, and writes no non-finite number on exit 0."""
        argv = [command, f"--alpha={alpha}", f"--beta={beta}", f"--p={p}", f"--seed={seed}"]
        argv += ["--nodes", "64"]
        if command == "solve":
            argv += [boundary_doc, f"--rmax={rmax}", "--grid", f"{grid[0]}x{grid[1]}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if command == "identities" and code in (0, 1):
            assert (code == 1) == (json.loads(out.getvalue())["violations"] > 0)
        else:
            assert code != 1
        if code == 0:
            assert not any(token in out.getvalue() for token in ("NaN", "Infinity", "nan"))
