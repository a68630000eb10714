"""The fixed catalog, generated once per checkout and cached on disk.

Generating ~98k photo objects takes seconds and is an input of the
benchmark, not work of the system under test, so it is the benchmark's
"build" step: the first run in a checkout writes
``bench/out/catalog-<key>.npy`` and later runs (and child servers) load
it.  The key covers the catalog parameters and the source of the
packages the generator depends on, so a change to the simulator or the
schema regenerates it.
"""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path

import numpy as np

from bench import config

OUT_DIR = Path(__file__).resolve().parent / "out"


def catalog_parameters(scale=1.0):
    """The catalog's ``SurveyParameters`` keyword arguments at ``scale``."""
    params = dict(config.CATALOG)
    for name in ("n_galaxies", "n_stars", "n_quasars"):
        params[name] = max(1, int(round(params[name] * scale)))
    return params


def _cache_key(params):
    import repro.catalog
    import repro.geometry
    import repro.htm

    digest = hashlib.sha1(repr(sorted(params.items())).encode())
    for package in (repro.catalog, repro.geometry, repro.htm):
        for path in sorted(Path(package.__file__).parent.glob("*.py")):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def load_catalog(scale=1.0):
    """``(photo_table, build_seconds)``; ``build_seconds`` is 0.0 when the
    cached file was used."""
    from repro import SkySimulator, SurveyParameters
    from repro.catalog import PHOTO_SCHEMA, ObjectTable

    params = catalog_parameters(scale)
    path = OUT_DIR / f"catalog-{_cache_key(params)}.npy"
    if path.exists():
        return ObjectTable(PHOTO_SCHEMA, np.load(path)), 0.0
    started = time.perf_counter()
    photo = SkySimulator(SurveyParameters(**params)).generate()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    # Written under a private name and renamed, so a concurrent reader
    # never sees a partial file.
    partial = path.with_name(f"{path.stem}.{os.getpid()}.tmp.npy")
    np.save(partial, photo.data)
    os.replace(partial, path)
    return photo, time.perf_counter() - started
