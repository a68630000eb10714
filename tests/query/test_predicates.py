"""Tests for repro.query.predicates."""

import numpy as np
import pytest

from repro.catalog.schema import PHOTO_SCHEMA
from repro.geometry.shapes import circle_region
from repro.query.errors import PlanError
from repro.query.parser import parse_expression
from repro.query.predicates import (
    compile_predicate,
    compile_scalar,
    extract_spatial_region,
    referenced_columns,
    region_for_spatial_call,
)


def predicate_mask(photo, text):
    expr = parse_expression(text)
    return compile_predicate(expr, PHOTO_SCHEMA)(photo)


class TestScalarCompilation:
    def test_arithmetic(self, photo):
        fn = compile_scalar(parse_expression("mag_g - mag_r"), PHOTO_SCHEMA)
        np.testing.assert_allclose(
            fn(photo), np.asarray(photo["mag_g"]) - np.asarray(photo["mag_r"])
        )

    def test_literals_and_negation(self, photo):
        fn = compile_scalar(parse_expression("-2.5"), PHOTO_SCHEMA)
        assert fn(photo) == -2.5

    def test_math_functions(self, photo):
        fn = compile_scalar(parse_expression("ABS(mag_g - mag_r)"), PHOTO_SCHEMA)
        assert bool((np.asarray(fn(photo)) >= 0).all())
        fn = compile_scalar(parse_expression("SQRT(petro_r50)"), PHOTO_SCHEMA)
        np.testing.assert_allclose(fn(photo), np.sqrt(photo["petro_r50"]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "term, reference",
        [
            ("SQRT(mag_r - 20) < 1", lambda mag_r: (mag_r >= 20) & (mag_r < 21)),
            ("LOG10(mag_r - 30) < 1", lambda mag_r: mag_r > 30),
        ],
    )
    def test_a_term_out_of_its_domain_warns_nothing(self, session, photo, term, reference):
        """NaN is false: the query answers, and numpy prints nothing."""
        table = session.query_table(f"SELECT objid FROM photo WHERE {term}")
        mag_r = np.asarray(photo["mag_r"])
        expected = np.sort(np.asarray(photo["objid"])[reference(mag_r)])
        np.testing.assert_array_equal(np.sort(np.asarray(table["objid"])), expected)

    def test_least_greatest(self, photo):
        fn = compile_scalar(parse_expression("LEAST(mag_g, mag_r)"), PHOTO_SCHEMA)
        np.testing.assert_allclose(
            fn(photo), np.minimum(photo["mag_g"], photo["mag_r"])
        )

    def test_unknown_column(self):
        with pytest.raises(PlanError):
            compile_scalar(parse_expression("bogus_column"), PHOTO_SCHEMA)

    def test_unknown_function(self):
        with pytest.raises(PlanError):
            compile_scalar(parse_expression("FROB(1)"), PHOTO_SCHEMA)

    def test_class_constants(self, photo):
        mask = predicate_mask(photo, "objtype = QUASAR")
        np.testing.assert_array_equal(mask, photo["objtype"] == 3)

    def test_dist_arcmin(self, photo):
        from repro.geometry.distance import angular_separation

        fn = compile_scalar(parse_expression("DIST_ARCMIN(40, 30)"), PHOTO_SCHEMA)
        expected = angular_separation(photo["ra"], photo["dec"], 40.0, 30.0) * 60.0
        np.testing.assert_allclose(fn(photo), expected, atol=1e-9)


class TestPredicateCompilation:
    def test_comparison(self, photo):
        mask = predicate_mask(photo, "mag_r < 18")
        np.testing.assert_array_equal(mask, photo["mag_r"] < 18)

    def test_boolean_combinations(self, photo):
        mask = predicate_mask(photo, "mag_r < 20 AND (objtype = STAR OR objtype = GALAXY)")
        expected = (photo["mag_r"] < 20) & (
            (photo["objtype"] == 1) | (photo["objtype"] == 2)
        )
        np.testing.assert_array_equal(mask, expected)

    def test_not(self, photo):
        mask = predicate_mask(photo, "NOT mag_r < 20")
        np.testing.assert_array_equal(mask, ~(photo["mag_r"] < 20))

    def test_none_predicate_is_all_true(self, photo):
        mask = compile_predicate(None, PHOTO_SCHEMA)(photo)
        assert bool(mask.all())
        assert mask.shape == (len(photo),)

    def test_scalar_literal_broadcasts(self, photo):
        mask = compile_predicate(parse_expression("TRUE"), PHOTO_SCHEMA)(photo)
        assert mask.shape == (len(photo),)

    def test_spatial_function_as_mask(self, photo):
        mask = predicate_mask(photo, "CIRCLE(40, 30, 5)")
        expected = circle_region(40, 30, 5).contains(photo.positions_xyz())
        np.testing.assert_array_equal(mask, expected)


class TestSpatialCalls:
    def test_circle(self):
        region = region_for_spatial_call(parse_expression("CIRCLE(10, 20, 1.5)"))
        assert len(region) == 1

    def test_negative_literal_args(self):
        region = region_for_spatial_call(parse_expression("CIRCLE(10, -20, 1.5)"))
        from repro.geometry.vector import radec_to_vector

        assert bool(region.contains(radec_to_vector(10.0, -20.0)))

    def test_latband_with_frame(self):
        region = region_for_spatial_call(
            parse_expression("LATBAND(-5, 5, 'galactic')")
        )
        assert len(region) == 1

    def test_rect_and_wedge_and_polygon(self):
        region_for_spatial_call(parse_expression("RECT(0, 10, -5, 5)"))
        region_for_spatial_call(parse_expression("LONWEDGE(350, 20)"))
        region_for_spatial_call(
            parse_expression("POLYGON(0, 0, 10, 0, 5, 8)")
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "CIRCLE(1, 2)",
            "CIRCLE(1, 2, 3, 4)",
            "CIRCLE(ra, 2, 3)",
            "LATBAND(1)",
            "POLYGON(0, 0, 1, 1)",
            "LATBAND(0, 10, 5)",
        ],
    )
    def test_bad_arguments(self, bad):
        with pytest.raises(PlanError):
            region_for_spatial_call(parse_expression(bad))


class TestRegionExtraction:
    def test_single_spatial_term(self):
        region = extract_spatial_region(parse_expression("CIRCLE(10, 20, 2)"))
        assert region is not None

    def test_and_combines(self):
        region = extract_spatial_region(
            parse_expression("CIRCLE(10, 20, 2) AND mag_r < 20 AND LATBAND(-5, 30)")
        )
        assert region is not None
        # AND intersects the two shapes.
        from repro.geometry.vector import radec_to_vector

        assert not bool(region.contains(radec_to_vector(10.0, -50.0)))

    def test_or_of_two_spatials_unions(self):
        region = extract_spatial_region(
            parse_expression("CIRCLE(10, 0, 2) OR CIRCLE(200, 0, 2)")
        )
        from repro.geometry.vector import radec_to_vector

        assert bool(region.contains(radec_to_vector(10.0, 0.0)))
        assert bool(region.contains(radec_to_vector(200.0, 0.0)))

    def test_or_with_attribute_gives_none(self):
        # 'CIRCLE(...) OR mag_r < 20' can match anywhere: no index help.
        region = extract_spatial_region(
            parse_expression("CIRCLE(10, 0, 2) OR mag_r < 20")
        )
        assert region is None

    def test_not_ignored(self):
        region = extract_spatial_region(parse_expression("NOT CIRCLE(10, 0, 2)"))
        assert region is None

    def test_a_negated_term_never_narrows_the_cover(self):
        # The shape a fused EXCEPT plans: A's terms AND NOT (B's terms).
        from repro.geometry.vector import radec_to_vector

        region = extract_spatial_region(
            parse_expression("CIRCLE(10, 0, 20) AND NOT (CIRCLE(10, 0, 2) AND mag_r < 20)")
        )
        # A's circle alone: its centre, inside the negated circle too,
        # stays covered.
        assert bool(region.contains(radec_to_vector(10.0, 0.0)))
        assert bool(region.contains(radec_to_vector(25.0, 0.0)))
        assert extract_spatial_region(
            parse_expression("mag_r < 20 AND NOT (CIRCLE(10, 0, 2))")
        ) is None

    def test_pure_attributes_give_none(self):
        assert extract_spatial_region(parse_expression("mag_r < 20")) is None

    def test_none_input(self):
        assert extract_spatial_region(None) is None


class TestReferencedColumns:
    def test_collects_columns(self):
        expr = parse_expression("mag_g - mag_r < 0.4 AND CIRCLE(1, 2, 3)")
        assert referenced_columns(expr) == {"mag_g", "mag_r", "cx", "cy", "cz"}

    def test_distance_reads_positions(self):
        expr = parse_expression("DIST_ARCMIN(1, 2) < objid")
        assert referenced_columns(expr) == {"objid", "cx", "cy", "cz"}

    def test_class_constants_excluded(self):
        expr = parse_expression("objtype = QUASAR")
        assert referenced_columns(expr) == {"objtype"}

    def test_multiple_expressions(self):
        exprs = [parse_expression("mag_r"), parse_expression("petro_r50 > 2")]
        assert referenced_columns(exprs) == {"mag_r", "petro_r50"}

    def test_none_entries_ignored(self):
        assert referenced_columns([None, parse_expression("objid")]) == {"objid"}
