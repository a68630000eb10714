"""The archive lifecycle end to end (Figure 2 of the paper).

Telescope chunks -> Operational Archive (calibration behind the
firewall) -> two-phase bulk load into the Science Archive's containers ->
spatial partitioning across servers -> FITS export -> the Figure-2
latency simulation.

Run:  python examples/archive_pipeline.py
"""

import numpy as np

from repro import (
    Archive,
    ChunkLoader,
    ContainerStore,
    Partitioner,
    SkySimulator,
    SurveyParameters,
)
from repro.archive import Calibration, DataFlowSimulator, OperationalArchive, ProductModel
from repro.catalog.schema import PHOTO_SCHEMA
from repro.interchange import read_binary_packets, stream_binary_packets
from repro.storage.partition import PartitionMap


def main():
    # --- Nightly observations arrive as spatially coherent chunks -------
    # (a "chunk consists of several segments of the sky that were scanned
    # in a single night", so we slice the survey by right ascension).
    simulator = SkySimulator(SurveyParameters(n_galaxies=25000, n_stars=15000,
                                              n_quasars=600))
    survey = simulator.generate()
    ra = np.asarray(survey["ra"])
    nights = [
        survey.select((ra >= lo) & (ra < lo + 45.0)) for lo in range(0, 360, 45)
    ]
    print(f"survey of {len(survey)} objects arriving as {len(nights)} nightly chunks")

    # --- Operational Archive: calibrate behind the firewall -------------
    operational = OperationalArchive(Calibration(version=1, zero_points={"r": 0.02}))
    for night_index, night in enumerate(nights):
        operational.ingest(night_index, night)
    published = [operational.publish(i) for i in range(len(nights))]
    print(f"published {len(published)} calibrated chunks "
          f"(calibration v{operational.calibration.version})")

    # --- Two-phase bulk load into the Science Archive -------------------
    store = ContainerStore(PHOTO_SCHEMA, depth=6)
    loader = ChunkLoader(store)
    reports = loader.load_chunks(published)
    touches = sum(r.containers_touched for r in reports)
    naive = sum(r.naive_touches for r in reports)
    print(f"loaded {loader.total_objects_loaded()} objects touching {touches} "
          f"containers (naive per-object insertion: {naive} touches, "
          f"{naive / touches:.0f}x more)")

    # --- The loaded archive is immediately queryable ---------------------
    # Connect a session over the freshly loaded store: the same query
    # agent that fronts a distributed archive fronts this one.
    with Archive.connect(stores={"photo": store}) as session:
        brightest = session.query_table(
            "SELECT objid, mag_r FROM photo ORDER BY mag_r LIMIT 3"
        )
        print("session over the loaded archive; 3 brightest objects: "
              + ", ".join(f"{int(r['objid'])} (r={float(r['mag_r']):.2f})"
                          for r in brightest.data))

    # --- Partition containers across commodity servers ------------------
    weights = store.container_sizes()
    partitioner = Partitioner(depth=6)
    partition_map = partitioner.build(weights, n_servers=8)
    loads = {}
    for cid, weight in weights.items():
        server = partition_map.server_for(cid)
        loads[server] = loads.get(server, 0) + weight
    balance = max(loads.values()) / (sum(loads.values()) / len(loads))
    print(f"partitioned {len(weights)} containers over 8 servers "
          f"(load imbalance {balance:.2f}x)")

    new_map, movement = partitioner.repartition(partition_map, weights, n_servers=10)
    print(f"adding 2 servers repartitions {movement.moved_fraction() * 100:.0f}% "
          "of objects")

    # --- FITS export of a published chunk --------------------------------
    packets = list(stream_binary_packets(published[0], rows_per_packet=2048))
    round_trip = read_binary_packets(packets)
    print(f"chunk 0 exported as {len(packets)} blocked FITS packets "
          f"({sum(len(p) for p in packets) / 1e6:.1f} MB), "
          f"round-trip rows: {len(round_trip)} == {len(published[0])}")

    # --- Figure 2: stage latencies over two years of operations ----------
    flow = DataFlowSimulator(daily_bytes=20_000_000_000)
    flow.observe(730)
    print("\nFigure-2 stage residency after 1 year of observing:")
    for stage, nbytes in flow.bytes_per_stage(365).items():
        print(f"  {stage.value:>4}: {nbytes / 1e12:6.2f} TB")
    print(f"data public after {flow.chunks[0].days_to_public()} days "
          f"(paper: 1-2 years); public fraction at day 730: "
          f"{flow.public_fraction(730) * 100:.0f}%")

    # --- Table 1 arithmetic ----------------------------------------------
    print("\nTable 1 (modeled vs paper):")
    for row in ProductModel().table1():
        print(f"  {row['product']:<26} {row['modeled_bytes'] / 1e9:9.1f} GB "
              f"(paper {row['paper_bytes'] / 1e9:7.0f} GB)")


if __name__ == "__main__":
    main()
