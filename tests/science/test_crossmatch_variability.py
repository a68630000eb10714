"""Tests for repro.science.crossmatch and .variability."""

import numpy as np
import pytest

from repro.catalog.schema import EPOCH_SCHEMA, EXTERNAL_SCHEMA
from repro.catalog.skygen import SkySimulator, SurveyParameters
from repro.science.crossmatch import crossmatch
from repro.science.variability import detect_variables, light_curve_statistics


@pytest.fixture(scope="module")
def survey_with_external():
    params = SurveyParameters(
        n_galaxies=3000, n_stars=2000, n_quasars=100, seed=1357
    )
    simulator = SkySimulator(params)
    photo = simulator.generate()
    external = simulator.generate_external_survey(
        photo, detection_fraction=0.2, astrometric_error_arcsec=1.0
    )
    return simulator, photo, external


@pytest.fixture(scope="module")
def survey_with_epochs():
    params = SurveyParameters(
        n_galaxies=2000, n_stars=1500, n_quasars=100, seed=2468
    )
    simulator = SkySimulator(params)
    photo = simulator.generate()
    epochs = simulator.generate_epochs(
        photo, n_epochs=12, variable_fraction=0.03, amplitude_mag=0.6
    )
    return simulator, photo, epochs


class TestExternalSurveyGeneration:
    def test_schema_and_truth(self, survey_with_external):
        simulator, photo, external = survey_with_external
        assert external.schema is EXTERNAL_SCHEMA
        truth = simulator.ground_truth.external_matches
        assert len(truth) > 0
        # Spurious sources exist: external is larger than the truth map.
        assert len(external) > len(truth)

    def test_detections_near_their_source(self, survey_with_external):
        simulator, photo, external = survey_with_external
        truth = simulator.ground_truth.external_matches
        objid_to_row = {int(o): k for k, o in enumerate(photo["objid"])}
        ext_row = {int(e): k for k, e in enumerate(external["extid"])}
        from repro.geometry.distance import angular_separation

        for extid, objid in list(truth.items())[:50]:
            e, p = ext_row[extid], objid_to_row[objid]
            sep_arcsec = float(
                angular_separation(
                    float(external["ra"][e]), float(external["dec"][e]),
                    float(photo["ra"][p]), float(photo["dec"][p]),
                )
            ) * 3600.0
            # 1-sigma error of 1 arcsec: 5 sigma covers everything.
            assert sep_arcsec < 5.0

    def test_detections_are_bright_subset(self, survey_with_external):
        simulator, photo, _external = survey_with_external
        matched_objids = set(simulator.ground_truth.external_matches.values())
        rows = [k for k, o in enumerate(photo["objid"]) if int(o) in matched_objids]
        assert bool((np.asarray(photo["mag_r"])[rows] < 20.0).all())


class TestCrossmatch:
    def test_recovers_truth(self, survey_with_external):
        simulator, photo, external = survey_with_external
        result = crossmatch(external, photo, radius_arcsec=5.0)
        identified = {
            e: o for e, o, _s in result.identification_table(external, photo)
        }
        truth = simulator.ground_truth.external_matches
        correct = sum(1 for e, o in truth.items() if identified.get(e) == o)
        # Nearest-neighbor at 5x the astrometric error: near-perfect.
        assert correct >= 0.97 * len(truth)

    def test_spurious_mostly_unmatched(self, survey_with_external):
        simulator, photo, external = survey_with_external
        result = crossmatch(external, photo, radius_arcsec=3.0)
        truth_extids = set(simulator.ground_truth.external_matches)
        extids = np.asarray(external["extid"])
        unmatched_extids = {int(e) for e in extids[result.unmatched_external_rows]}
        spurious = {int(e) for e in extids} - truth_extids
        # Unmatched sources are dominated by the spurious population.
        assert len(unmatched_extids & spurious) >= 0.5 * len(spurious)

    def test_partition_sums(self, survey_with_external):
        _sim, photo, external = survey_with_external
        result = crossmatch(external, photo, radius_arcsec=3.0)
        assert result.match_count() + len(result.unmatched_external_rows) == len(
            external
        )

    def test_separations_within_radius(self, survey_with_external):
        _sim, photo, external = survey_with_external
        result = crossmatch(external, photo, radius_arcsec=2.0)
        assert bool((result.separations_arcsec <= 2.0 + 1e-9).all())

    def test_radius_validated(self, survey_with_external):
        _sim, photo, external = survey_with_external
        with pytest.raises(ValueError):
            crossmatch(external, photo, radius_arcsec=0.0)


class TestEpochGeneration:
    def test_schema_and_shape(self, survey_with_epochs):
        _sim, photo, epochs = survey_with_epochs
        assert epochs.schema is EPOCH_SCHEMA
        assert len(epochs) == 12 * len(photo)

    def test_every_object_observed_every_epoch(self, survey_with_epochs):
        _sim, photo, epochs = survey_with_epochs
        counts = np.bincount(np.asarray(epochs["epoch"]))
        assert bool((counts == len(photo)).all())

    def test_nonvariables_stay_constant(self, survey_with_epochs):
        simulator, photo, epochs = survey_with_epochs
        stats = light_curve_statistics(epochs)
        variable = set(simulator.ground_truth.variable_objids)
        quiet = np.array([int(o) not in variable for o in stats.objids])
        # Constant sources: reduced chi2 near 1 on average.
        assert float(np.median(stats.chi2_dof[quiet])) < 2.0


class TestVariableDetection:
    def test_precision(self, survey_with_epochs):
        simulator, _photo, epochs = survey_with_epochs
        variables, _stats = detect_variables(epochs, chi2_threshold=5.0)
        truth = set(simulator.ground_truth.variable_objids)
        found = set(variables)
        if found:
            precision = len(truth & found) / len(found)
            assert precision >= 0.95

    def test_recall_on_bright_variables(self, survey_with_epochs):
        # Faint variables drown in photometric noise (physically
        # correct); bright injected variables must be recovered.
        simulator, photo, epochs = survey_with_epochs
        variables, _stats = detect_variables(epochs, chi2_threshold=5.0)
        truth = set(simulator.ground_truth.variable_objids)
        bright = {
            int(o)
            for o, m in zip(photo["objid"], photo["mag_r"])
            if int(o) in truth and float(m) < 19.5
        }
        found = set(variables)
        assert bright, "fixture must inject some bright variables"
        recall = len(bright & found) / len(bright)
        assert recall >= 0.9

    def test_min_epochs_guard(self, survey_with_epochs):
        _sim, _photo, epochs = survey_with_epochs
        variables, stats = detect_variables(epochs, min_epochs=99)
        assert variables == []

    def test_threshold_monotone(self, survey_with_epochs):
        _sim, _photo, epochs = survey_with_epochs
        loose, _ = detect_variables(epochs, chi2_threshold=3.0)
        tight, _ = detect_variables(epochs, chi2_threshold=10.0)
        assert set(tight) <= set(loose)

    def test_errors_validated(self, survey_with_epochs):
        _sim, _photo, epochs = survey_with_epochs
        bad = epochs.take(np.arange(10))
        bad.data["mag_err_r"][:] = 0.0
        with pytest.raises(ValueError):
            light_curve_statistics(bad)
