import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from csck.character import Dims, KahlerClass
from csck.cli import main
from csck.cone import (
    MAX_DIM,
    MAX_JOBS,
    MAX_RESOLUTION,
    MIN_WIDTH,
    FacePoint,
    REGION_BOUNDARY,
    REGION_INSIDE,
    REGION_NOT_NORMALIZABLE,
    REGION_OUTSIDE,
    in_kahler_triangle,
    isolate_on_segment,
    ke_check,
    limit_l1,
    limit_l2,
    sample_face,
    scan_pair,
    scan_range,
    sign_at,
    vertex_c,
)
from oracles import reference_in_kahler_triangle, reference_sample_face


class TestFaceGeometry:
    def test_vertex_values(self):
        assert vertex_c(Dims(1, 2)) == FacePoint(Fraction(3, 9), Fraction(4, 9), Fraction(2, 9))
        assert vertex_c(Dims(1, 1)) == FacePoint(Fraction(3, 8), Fraction(3, 8), Fraction(2, 8))

    def test_vertex_coordinates_sum_to_one(self):
        for m, n in ((1, 2), (4, 7), (9, 10)):
            c = vertex_c(Dims(m, n))
            assert c.x + c.y + c.z == 1

    def test_face_point_validation(self):
        with pytest.raises(ValueError):
            FacePoint(1, 1, 1)

    def test_centroid_inside(self):
        assert in_kahler_triangle(Dims(1, 2), KahlerClass(Fraction(4, 9), Fraction(13, 27), Fraction(2, 27))) == REGION_INSIDE

    def test_vertex_on_boundary(self):
        assert in_kahler_triangle(Dims(1, 2), KahlerClass(1, 0, 0)) == REGION_BOUNDARY

    def test_outside(self):
        assert in_kahler_triangle(Dims(1, 2), KahlerClass(1, 1, 5)) == REGION_OUTSIDE

    def test_not_normalizable(self):
        assert in_kahler_triangle(Dims(1, 2), KahlerClass(-1, 0, 1)) == REGION_NOT_NORMALIZABLE

    def test_scaling_invariance_of_region(self):
        d = Dims(2, 5)
        point = KahlerClass(Fraction(1, 3), Fraction(1, 2), Fraction(1, 6))
        for s in (2, Fraction(1, 7), 30):
            assert in_kahler_triangle(d, point.scaled(s)) == in_kahler_triangle(d, point)


class TestLimits:
    def test_frozen_values(self):
        assert limit_l1(Dims(1, 2)) == Fraction(-15, 8)
        assert limit_l2(Dims(1, 2)) == Fraction(45, 8)
        assert limit_l1(Dims(2, 5)) == Fraction(-13500000, 823543)
        assert limit_l2(Dims(2, 5)) == Fraction(1323, 64)

    def test_signs_on_backed_range(self):
        for m in range(1, 10):
            for n in range(m + 1, 11):
                d = Dims(m, n)
                assert limit_l1(d) < 0
                assert limit_l2(d) > 0


class TestSigns:
    def test_anticanonical_sign(self):
        assert sign_at(Dims(1, 2), KahlerClass(3, 4, 2)) == -1

    def test_zero_on_z_plane(self):
        assert sign_at(Dims(1, 2), KahlerClass(1, 1, 0)) == 0

    def test_positive_scaling_preserves_sign(self):
        rng = random.Random(3)
        d = Dims(1, 2)
        for _ in range(10):
            c = KahlerClass(*(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)))
            s = Fraction(rng.randint(1, 20), rng.randint(1, 20))
            assert sign_at(d, c.scaled(s)) == sign_at(d, c)


class TestKeCheck:
    def test_golden(self):
        verdict = ke_check(Dims(1, 2))
        assert verdict.f_at_c1 == -2304
        assert not verdict.ke_admissible

    def test_symmetric_dims_admit(self):
        # for m = n the anticanonical class lies on the zero locus
        verdict = ke_check(Dims(1, 1))
        assert verdict.f_at_c1 == 0
        assert verdict.ke_admissible


class TestSegments:
    def test_sign_change_yields_interval(self):
        d = Dims(1, 2)
        report = isolate_on_segment(d, KahlerClass(Fraction(7, 16), Fraction(7, 16), Fraction(1, 8)), vertex_c(d).as_class())
        assert report.sign_start == 1 and report.sign_end == -1
        assert len(report.roots) >= 1
        assert all(r.inside_certified for r in report.roots)

    def test_identically_zero_on_z_plane(self):
        report = isolate_on_segment(Dims(1, 2), KahlerClass(1, 0, 0), KahlerClass(0, 1, 0))
        assert report.identically_zero
        assert report.roots == ()

    def test_no_interior_roots_when_signs_agree(self):
        d = Dims(1, 2)
        report = isolate_on_segment(
            d,
            KahlerClass(Fraction(7, 16), Fraction(7, 16), Fraction(1, 8)),
            KahlerClass(Fraction(15, 32), Fraction(15, 32), Fraction(1, 16)),
        )
        assert report.sign_start == 1 and report.sign_end == 1
        assert report.roots == ()

    def test_coincident_endpoints_rejected(self):
        with pytest.raises(ValueError):
            isolate_on_segment(Dims(1, 2), KahlerClass(1, 1, 1), KahlerClass(1, 1, 1))

    def test_json_shape(self):
        d = Dims(1, 2)
        report = isolate_on_segment(d, KahlerClass(Fraction(7, 16), Fraction(7, 16), Fraction(1, 8)), vertex_c(d).as_class())
        obj = report.to_json()
        assert obj["sign_from"] == "positive" and obj["sign_to"] == "negative"
        assert obj["intervals"] and {"lo", "hi", "midpoint_class", "inside_certified"} <= set(obj["intervals"][0])


class TestScan:
    def test_full_backed_range(self):
        rows = scan_range(1, 9, 2, 10)
        assert len(rows) == 45
        assert [(r.m, r.n) for r in rows] == sorted((r.m, r.n) for r in rows)
        for row in rows:
            assert row.limit1 < 0
            assert row.limit2 > 0
            assert not row.ke_admissible
            assert row.sign_change_found
            assert row.paper_backed
            assert row.witness_intervals

    def test_single_pair_consistent(self):
        row = scan_pair(1, 2)
        assert row.limit1 == limit_l1(Dims(1, 2))
        assert row.limit2 == limit_l2(Dims(1, 2))
        assert row.f_at_c1 == -2304

    def test_equal_dims_row(self):
        rows = scan_range(3, 3, 3, 3, all_pairs=True)
        assert len(rows) == 1
        row = rows[0]
        assert not row.paper_backed
        assert row.ke_admissible  # F vanishes on the anticanonical class at m = n

    def test_default_excludes_equal_dims(self):
        assert scan_range(3, 3, 3, 3) == []

    def test_csv_fields_shape(self, capsys):
        assert main(["scan", "--m", "1..1", "--n", "2..2", "--format", "csv", "--no-meta"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[:2] == ["1", "2"]
        assert fields[5:] == ["false", "true", "true"]

    def test_parallel_scan_is_deterministic(self):
        sequential = [r.to_json() for r in scan_range(1, 3, 2, 4)]
        parallel = [r.to_json() for r in scan_range(1, 3, 2, 4, jobs=2)]
        assert json.dumps(sequential) == json.dumps(parallel)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            scan_range(0, 2, 1, 3)
        with pytest.raises(ValueError):
            scan_range(2, 1, 1, 3)


class TestSampleFace:
    def test_resolution_three(self):
        samples = list(sample_face(Dims(1, 2), 3))
        assert len(samples) == 1
        only = samples[0]
        assert (only.point.x, only.point.y, only.point.z) == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))

    def test_anticanonical_direction_sampled_negative(self):
        samples = sample_face(Dims(1, 2), 9)
        hit = [s for s in samples if (s.point.x, s.point.y, s.point.z) == (Fraction(3, 9), Fraction(4, 9), Fraction(2, 9))]
        assert len(hit) == 1
        assert hit[0].sign == -1

    def test_points_sum_to_one(self):
        for s in sample_face(Dims(2, 3), 6):
            assert s.point.x + s.point.y + s.point.z == 1

    def test_low_resolution_rejected(self):
        for resolution in (1, 2):
            with pytest.raises(ValueError):
                sample_face(Dims(1, 2), resolution)

    def test_resolution_past_cap_rejected(self):
        with pytest.raises(ValueError, match="at most"):
            sample_face(Dims(1, 2), MAX_RESOLUTION + 1)

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_rows_match_per_point_path(self, m, n):
        d = Dims(m, n)
        for resolution in sorted({3, 8, 12, 2 * (m + n + 6)}):
            rows = [(s.point, s.sign, s.region) for s in sample_face(d, resolution)]
            assert rows == [(s.point, s.sign, s.region) for s in reference_sample_face(d, resolution)]

    def test_zero_and_boundary_rows(self):
        # m = n puts the vertex C = (3, 3, 2)/8 on the lattice, where F(c1) = 0
        samples = list(sample_face(Dims(1, 1), 8))
        at_c = [s for s in samples if s.point == FacePoint(Fraction(3, 8), Fraction(3, 8), Fraction(1, 4))]
        assert [(s.sign, s.region) for s in at_c] == [(0, REGION_BOUNDARY)]
        assert sum(s.sign == 0 for s in samples) > 1


_RATIONAL_COORDS = st.fractions(min_value=-5, max_value=5, max_denominator=7)


class TestRegionRule:
    @given(
        st.integers(1, MAX_DIM),
        st.integers(1, MAX_DIM),
        st.tuples(_RATIONAL_COORDS, _RATIONAL_COORDS, _RATIONAL_COORDS),
    )
    def test_matches_scaled_barycentric_rule(self, m, n, coords):
        d = Dims(m, n)
        c = KahlerClass(*coords)
        assert in_kahler_triangle(d, c) == reference_in_kahler_triangle(d, c)

    @pytest.mark.parametrize("m,n", [(1, 2), (1, 1), (7, 3)])
    def test_matches_on_lattice_and_edges(self, m, n):
        # the vertices, the edge points and C itself, scaled and unscaled
        d = Dims(m, n)
        for r in (1, 2, m + n + 6):
            for i in range(-1, r + 2):
                for j in range(-1, r + 2):
                    c = KahlerClass(i, j, r - i - j)
                    assert in_kahler_triangle(d, c) == reference_in_kahler_triangle(d, c)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in this
    process, so no worker process is ever started."""

    created: list[int] = []

    def __init__(self, max_workers):
        _RecordingPool.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestJobsCap:
    @pytest.fixture(autouse=True)
    def recording_pool(self, monkeypatch):
        _RecordingPool.created = []
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)

    def test_workers_never_exceed_pairs(self):
        rows = scan_range(1, 2, 2, 3, jobs=MAX_JOBS)
        assert [(r.m, r.n) for r in rows] == [(1, 2), (1, 3), (2, 3)]
        assert _RecordingPool.created == [3]
        scan_range(1, 1, 2, 3, jobs=2)
        assert _RecordingPool.created == [3, 2]

    @pytest.mark.parametrize("jobs", [0, -1, 65, 100000])
    def test_out_of_range_jobs_rejected_before_any_work(self, jobs, capsys):
        code = main(["scan", "--m", "1..2", "--n", "2..3", "--jobs", str(jobs), "--no-meta"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "jobs must be 1 to 64" in captured.err
        assert _RecordingPool.created == []


class TestDimensionCap:
    def test_scan_range_past_cap_rejected(self):
        assert MAX_DIM == 100
        with pytest.raises(ValueError, match="at most 100"):
            scan_range(1, 2, 99, 101)
        with pytest.raises(ValueError, match="at most 100"):
            scan_range(101, 101, 1, 1)

    @pytest.mark.parametrize(
        "argv",
        [
            ("character", "-m", "101", "-n", "2"),
            ("evaluate", "-m", "1", "-n", "101", "--class", "3,4,2"),
            ("locate", "-m", "101", "-n", "2", "--from", "1,0,0", "--to", "0,1,0"),
            ("sample-face", "-m", "2", "-n", "101", "--resolution", "5"),
            ("scan", "--m", "1..5", "--n", "99..101"),
        ],
    )
    def test_commands_refuse_dims_past_cap_before_building_f(self, argv, capsys, monkeypatch):
        def refuse(d):
            raise AssertionError(f"F built for {d}")

        monkeypatch.setattr("csck.cli.compute_obstruction", refuse)
        monkeypatch.setattr("csck.cone.compute_obstruction", refuse)
        code = main(list(argv) + ["--no-meta"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "at most 100" in captured.err


class TestWidthFloor:
    SEGMENT = (
        KahlerClass(Fraction(7, 16), Fraction(7, 16), Fraction(1, 8)),
        KahlerClass(Fraction(1, 3), Fraction(4, 9), Fraction(2, 9)),
    )

    def test_below_floor_rejected_before_building_f(self, monkeypatch):
        assert MIN_WIDTH == Fraction(1, 2**2048)

        def refuse(d):
            raise AssertionError(f"F built for {d}")

        monkeypatch.setattr("csck.cone.compute_obstruction", refuse)
        for width in (MIN_WIDTH / 2, Fraction(0), Fraction(-1)):
            with pytest.raises(ValueError, match="at least 1/2\\^2048"):
                scan_range(1, 1, 2, 2, width=width)
            with pytest.raises(ValueError, match="at least 1/2\\^2048"):
                isolate_on_segment(Dims(1, 2), *self.SEGMENT, width=width)

    def test_floor_itself_isolates(self):
        report = isolate_on_segment(Dims(1, 2), *self.SEGMENT, width=MIN_WIDTH)
        assert report.roots
        for root in report.roots:
            assert root.interval.hi - root.interval.lo <= MIN_WIDTH


def test_import_leaves_process_pool_unloaded():
    # only a scan that fans out needs multiprocessing; importing it costs every command
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, csck; print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
