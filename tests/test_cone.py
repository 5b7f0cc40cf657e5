import copy
import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from csck import cone, polynomials
from csck.character import Dims, KahlerClass, compute_obstruction
from csck.cli import main
from csck.cone import (
    MAX_DIM,
    MAX_JOBS,
    MAX_RESOLUTION,
    MIN_WIDTH,
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
from csck.polynomials import sturm_isolate
from oracles import reference_in_kahler_triangle, reference_limit_l1, reference_limit_l2, reference_sample_face
from test_character import shape_segments


def _refuse(d, *args):
    """Stands in for a route to F where a refusal must come before any work."""
    raise AssertionError(f"F computed for {d}")


class TestFaceGeometry:
    def test_vertex_values(self):
        assert vertex_c(Dims(1, 2)) == KahlerClass(Fraction(3, 9), Fraction(4, 9), Fraction(2, 9))
        assert vertex_c(Dims(1, 1)) == KahlerClass(Fraction(3, 8), Fraction(3, 8), Fraction(2, 8))
        assert type(vertex_c(Dims(1, 2))) is KahlerClass

    def test_vertex_coordinates_sum_to_one(self):
        for m, n in ((1, 2), (4, 7), (9, 10)):
            c = vertex_c(Dims(m, n))
            assert c.x + c.y + c.z == 1

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


# a valid instance of each validating value type, a field, and a value its constructor refuses there
_VALIDATED = [
    pytest.param(Dims(1, 2), "m", 0, id="Dims"),
    pytest.param(KahlerClass(1, 2, 3), "x", "a", id="KahlerClass"),
]


@pytest.mark.parametrize("value, field, bad", _VALIDATED)
def test_value_types_revalidate_on_replace_pickle_and_copy(value, field, bad):
    assert value._replace(**{field: getattr(value, field)}) == value
    assert pickle.loads(pickle.dumps(value)) == value
    assert type(copy.copy(value)) is type(value)
    with pytest.raises(ValueError):
        value._replace(**{field: bad})
    # built around the constructor, as tuple.__new__ or namedtuple's stock _make would
    forged = tuple.__new__(type(value), [bad if f == field else v for f, v in zip(value._fields, value)])
    for rebuild in (lambda v: v._replace(), lambda v: pickle.loads(pickle.dumps(v)), copy.copy):
        with pytest.raises(ValueError):
            rebuild(forged)


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

    def test_signs_for_every_accepted_pair(self):
        for m in range(1, MAX_DIM + 1):
            for n in range(1, MAX_DIM + 1):
                d = Dims(m, n)
                assert limit_l1(d) < 0 < limit_l2(d), d

    def test_moment_forms_match_double_sums(self):
        # m >= n included: the one-term closed forms against references that
        # sum c(s, q) over every (s, q) with their own binomials
        for m in range(1, 26):
            for n in range(1, 26):
                d = Dims(m, n)
                assert limit_l1(d) == reference_limit_l1(d), d
                assert limit_l2(d) == reference_limit_l2(d), d


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
        f_at_c1 = ke_check(Dims(1, 2))
        assert f_at_c1 == -2304
        assert isinstance(f_at_c1, Fraction)

    def test_symmetric_dims_admit(self):
        # for m = n the anticanonical class lies on the zero locus
        assert ke_check(Dims(1, 1)) == 0

    def test_sign_is_sign_of_m_minus_n(self):
        # F(c1) has the sign of m - n, is odd under (m, n) -> (n, m) and
        # vanishes exactly on the diagonal: the scan CSV's F_at_c1 is -2304
        # at (1, 2) and 2304 at (2, 1)
        values = {(m, n): ke_check(Dims(m, n)) for m in range(1, 16) for n in range(1, 16)}
        for (m, n), value in values.items():
            assert (value > 0) - (value < 0) == (m > n) - (m < n), (m, n)
            assert value == -values[n, m], (m, n)
            assert (value == 0) == (m == n), (m, n)
        assert values[2, 1] == 2304

    def test_sign_over_the_cli_range(self):
        # the same for every pair the CLI accepts, each unordered pair once,
        # through the shape-form point value
        for m in range(1, MAX_DIM + 1):
            for n in range(m, MAX_DIM + 1):
                value = ke_check(Dims(m, n))
                assert (value > 0) - (value < 0) == (m > n) - (m < n), (m, n)
                assert ke_check(Dims(n, m)) == -value, (m, n)


_SMALL_COORDS = st.fractions(min_value=-2, max_value=2, max_denominator=6)
_SEGMENT_ENDS = st.builds(KahlerClass, _SMALL_COORDS, _SMALL_COORDS, _SMALL_COORDS)
# classes on z = 0, where z^2 divides F
_FLAT_ENDS = st.builds(KahlerClass, _SMALL_COORDS, _SMALL_COORDS, st.just(0))


def _assert_intervals_match_the_expanded_restriction(d, start, end, width):
    # the shape form, divided by z(t)^2 where that applies, against the
    # expanded F's restriction isolated with its square-free part always taken
    report = isolate_on_segment(d, KahlerClass(*start), KahlerClass(*end), width)
    expanded = compute_obstruction(d).F.restrict_to_line(start, end)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polynomials, "_simple_roots_bound", lambda *args: None)
        reference = sturm_isolate(expanded, 0, 1, width)
    assert report.identically_zero == reference.identically_zero
    assert tuple(r.interval for r in report.roots) == reference.intervals


class TestSegments:
    def test_sign_change_yields_interval(self):
        d = Dims(1, 2)
        report = isolate_on_segment(d, KahlerClass(Fraction(7, 16), Fraction(7, 16), Fraction(1, 8)), vertex_c(d))
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

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([Dims(1, 2), Dims(2, 1), Dims(2, 3)]),
        st.one_of(_SEGMENT_ENDS, _FLAT_ENDS),
        st.one_of(_SEGMENT_ENDS, _FLAT_ENDS),
    )
    @example(Dims(1, 2), KahlerClass(1, 0, 0), KahlerClass(0, 1, 0))  # AB, where F is identically zero
    @example(Dims(2, 3), KahlerClass(1, 1, 0), KahlerClass(0, 0, 1))  # from z = 0 to the apex
    def test_endpoint_signs_are_those_of_f(self, d, start, end):
        # read from the restriction at t = 0 and t = 1, never evaluated apart
        assume(start != end)
        report = isolate_on_segment(d, start, end)
        assert report.sign_start == sign_at(d, start)
        assert report.sign_end == sign_at(d, end)

    def test_zero_at_the_end_gets_a_straddling_interval(self):
        # the segment ends on AB, where z = 0 and F vanishes: the zero at t = 1
        # is isolated by an interval reaching past the segment, not certified
        d = Dims(1, 2)
        report = isolate_on_segment(d, vertex_c(d), KahlerClass(Fraction(1, 2), Fraction(1, 2), 0))
        assert report.sign_end == 0
        last = report.roots[-1]
        assert (last.interval.lo, last.interval.hi) == (Fraction(2097151, 2097152), Fraction(2097153, 2097152))
        assert not last.inside_certified

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(shape_segments(top=6))
    @example((Dims(2, 2), (1, 1, 1), (4, 4, 2)))  # F(c1) = 0 at t = 1, z > 0 up to t = 3/2: divided
    @example((Dims(2, 2), (1, 2, 1), (Fraction(1, 2), Fraction(1, 2), Fraction(1, 4))))  # z(3/2) < 0: not divided
    def test_intervals_match_the_expanded_restriction(self, segment):
        _assert_intervals_match_the_expanded_restriction(*segment, cone.DEFAULT_WIDTH)

    @pytest.mark.parametrize("width", [Fraction(1), Fraction(1, 2)])
    def test_wide_straddle_keeps_a_zero_of_z_out(self, width):
        # F(c1) = 0 at t = 1 and z = 0 at t = 10/9, inside the interval that
        # straddles t = 1 at these widths: z(t)^2 is not divided out there
        ends = (KahlerClass(1, 1, 1), KahlerClass(Fraction(1, 5), Fraction(1, 5), Fraction(1, 10)))
        _assert_intervals_match_the_expanded_restriction(Dims(2, 2), *ends, width)

    def test_json_shape(self):
        d = Dims(1, 2)
        report = isolate_on_segment(d, KahlerClass(Fraction(7, 16), Fraction(7, 16), Fraction(1, 8)), vertex_c(d))
        obj = report.to_json()
        assert obj["sign_from"] == "positive" and obj["sign_to"] == "negative"
        assert obj["intervals"] and {"lo", "hi", "midpoint_class", "inside_certified"} <= set(obj["intervals"][0])


# SHA-256 of the JSON rows of test_verdicts_past_the_paper_range
WIDE_SCAN_SHA256 = "e5d201dee784b44969d169b294e8a83c95d069ac1aa656b41104620f93addbd5"


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

    @pytest.mark.parametrize("m,n", [(1, 2), (4, 7), (2, 2), (3, 1), (10, 9)])
    def test_f_is_evaluated_once_beyond_the_witness_probes(self, m, n, monkeypatch):
        # F(c1) is the one shape-form point value outside the witness search:
        # the vertex sign comes from it, the segment end signs from the restriction
        counts = {"evaluate": 0, "probes": 0}
        evaluate, search = cone.obstruction_at, cone._search_signed_point

        def counting_evaluate(d, point):
            counts["evaluate"] += 1
            return evaluate(d, point)

        def counting_search(*args):
            before = counts["evaluate"]
            found = search(*args)
            counts["probes"] += counts["evaluate"] - before
            return found

        monkeypatch.setattr(cone, "obstruction_at", counting_evaluate)
        monkeypatch.setattr(cone, "_search_signed_point", counting_search)
        row = scan_pair(m, n)
        assert row.sign_change_found
        assert counts["probes"] >= 1
        assert counts["evaluate"] == 1 + counts["probes"]

    def test_commands_but_character_never_build_f(self, capsys):
        compute_obstruction.cache_clear()
        for argv in (
            ["scan", "--m", "1..3", "--n", "1..4", "--all-pairs"],
            ["locate", "-m", "2", "-n", "3", "--from", "7/16,7/16,1/8", "--to", "1/3,4/9,2/9"],
            ["evaluate", "-m", "3", "-n", "2", "--class", "3,4,2"],
            ["sample-face", "-m", "3", "-n", "2", "--resolution", "9"],
        ):
            assert main(argv + ["--no-meta"]) == 0
        capsys.readouterr()
        assert compute_obstruction.cache_info().misses == 0

    def test_scan_never_forms_a_square_free_part(self, monkeypatch):
        # every witness restriction is nonzero at t = 0 and 1 with a Descartes
        # bound of 0 or 1 on (0, 1), so its roots there are simple and
        # isolation skips the square-free part
        def refuse(p):
            raise AssertionError(f"square-free part formed for degree {p.degree}")

        monkeypatch.setattr(polynomials, "square_free_part", refuse)
        rows = scan_range(1, 12, 1, 12, all_pairs=True)
        assert len(rows) == 144
        assert all(row.sign_change_found for row in rows if row.m < row.n)

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

    def test_verdicts_past_the_paper_range(self):
        # every pair m < n with m + n <= 40, eight times the paper's 45; the
        # rows' JSON, one line each, is pinned as well
        pairs = [(m, n) for n in range(2, 40) for m in range(1, min(n, 41 - n))]
        assert len(pairs) == 380
        digest = hashlib.sha256()
        for m, n in pairs:
            row = scan_pair(m, n)
            digest.update(json.dumps(row.to_json()).encode() + b"\n")
            assert row.limit1 < 0, (m, n)
            assert row.limit2 > 0, (m, n)
            assert row.sign_change_found and row.witness_intervals, (m, n)
            assert row.f_at_c1 != 0, (m, n)
        assert digest.hexdigest() == WIDE_SCAN_SHA256

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
        assert type(only.point) is KahlerClass
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

    @pytest.mark.parametrize("resolution", [5.0, 7.5, True, Fraction(7)])
    def test_non_integer_resolution_rejected(self, resolution, monkeypatch):
        # refused as Dims refuses a non-integer, before any row is restricted
        monkeypatch.setattr(cone, "obstruction_on_line", _refuse)
        with pytest.raises(ValueError, match="must be an integer"):
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
        at_c = [s for s in samples if s.point == KahlerClass(Fraction(3, 8), Fraction(3, 8), Fraction(1, 4))]
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

    def map(self, fn, *iterables):
        return map(fn, *iterables)


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
        # character builds F; the other commands work from its shape form
        for name in ("cli.compute_obstruction", "cli.obstruction_at", "cone.obstruction_at", "cone.obstruction_on_line"):
            monkeypatch.setattr(f"csck.{name}", _refuse)
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
        monkeypatch.setattr(cone, "obstruction_at", _refuse)
        monkeypatch.setattr(cone, "obstruction_on_line", _refuse)
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


# Modules that a start-up must not load: only a scan that fans out needs
# multiprocessing, only verify needs the localization routes and the battery,
# only the meta header needs datetime, and dataclasses pulls in inspect.
_DEFERRED = ("multiprocessing", "dataclasses", "datetime", "csck.localization", "csck.verification")

_START_UPS = {
    "import": [],
    "scan": ["scan", "-m", "1..2", "-n", "2..3", "--no-meta"],
    "sample-face": ["sample-face", "-m", "2", "-n", "3", "--resolution", "5", "--no-meta"],
}


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)


def test_import_leaves_process_pool_unloaded():
    for start_up, argv in _START_UPS.items():
        # a command runs as ``python -m csck``; the loaded modules go to stderr once it exits
        run = "runpy.run_module('csck', run_name='__main__', alter_sys=True)" if argv else "import csck"
        code = (
            f"import json, runpy, sys\nsys.argv = ['csck', *{argv!r}]\n"
            f"try:\n    {run}\nfinally:\n    print(json.dumps(sorted(sys.modules)), file=sys.stderr)"
        )
        proc = _run_python(code)
        assert proc.returncode == 0, (start_up, proc.stderr)
        loaded = json.loads(proc.stderr.splitlines()[-1])
        assert "csck.cone" in loaded, start_up
        assert [m for m in loaded if m in _DEFERRED or m.split(".")[0] in _DEFERRED] == [], start_up


def test_lazy_package_names_resolve():
    code = (
        "import json, sys, csck\n"
        "before = 'csck.localization' in sys.modules\n"
        # the verification routes are imported from csck.localization, not the root
        "from csck.localization import (CheckResult, CycloElement, SeriesContext, build_series_context,"
        " lambda_at_one, lambda_sum_check, series_component_value, t_sum_congruence_check)\n"
        "star = {}\n"
        "exec('from csck import *', star)\n"
        "print(json.dumps([before,"
        " sorted(set(csck.__all__) - set(star)), sorted(set(csck.__all__) - set(dir(csck)))]))"
    )
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, [], []]
    import csck

    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        csck.not_a_name
