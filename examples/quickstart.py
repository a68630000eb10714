"""Quickstart: generate a synthetic sky, index it, and query it.

Walks the core loop of the archive through the *session API* — the
paper's query agent: connect to the archive, inspect a plan, run
interactive queries that stream ASAP, queue a batch job, and render a
finding chart.

Run:  python examples/quickstart.py
"""

from repro import Archive, ContainerStore, SkySimulator, SurveyParameters
from repro.catalog import make_tag_table
from repro.science import make_finding_chart


def main():
    # 1. A synthetic SDSS-like sky: clustered galaxies, plane-concentrated
    #    stars, sparse quasars.
    params = SurveyParameters(n_galaxies=30000, n_stars=20000, n_quasars=800)
    simulator = SkySimulator(params)
    photo = simulator.generate()
    print(f"generated {len(photo)} objects "
          f"({photo.nbytes() / 1e6:.1f} MB of full records)")

    # 2. Cluster into containers keyed by HTM trixels (depth 6 ~ 0.9 deg
    #    scale), build the tag-object vertical partition, and connect a
    #    session over the stores (a single-store engine is built for us;
    #    pass a DistributedArchive instead and nothing below changes).
    session = Archive.connect(stores={
        "photo": ContainerStore.from_table(photo, depth=6),
        "tag": ContainerStore.from_table(make_tag_table(photo), depth=6),
    })

    # 3. A cone search with attribute predicates.  The optimizer extracts
    #    the CIRCLE into an HTM cover and routes the query to the tag
    #    table because only popular attributes are touched — visible in
    #    the structured plan tree.
    query = (
        "SELECT objid, mag_r, mag_g - mag_r AS gr "
        "FROM photo "
        "WHERE CIRCLE(180.0, 30.0, 3.0) AND mag_r < 21.5 "
        "ORDER BY mag_r LIMIT 10"
    )
    print("\nplan:")
    print(session.explain(query).render(indent=1))
    result = session.query_table(query)
    # Empty results are well-formed empty tables — no None checks needed.
    print(f"\n{len(result)} objects matched:")
    print(f"{'objid':>8} {'r':>7} {'g-r':>6}")
    for row in result.data:
        print(f"{int(row['objid']):>8} {float(row['mag_r']):>7.2f} "
              f"{float(row['gr']):>6.2f}")

    # 4. Streaming: the ASAP push means the first row arrives long before
    #    the query completes; fetchmany paginates the same cursor.
    cursor = session.execute("SELECT objid FROM photo WHERE mag_r < 22")
    page = cursor.fetchmany(1000)
    rest = cursor.to_table()
    print(f"\nstreamed {len(page)} + {len(rest)} rows: first row after "
          f"{cursor.time_to_first_row * 1e3:.1f} ms, "
          f"complete after {cursor.time_to_completion * 1e3:.1f} ms")

    # 5. Batch work queues on the session's fair-share queue and runs
    #    one job at a time, keeping interactive queries at
    #    paper-mandated priority; results are delivered on completion.
    job = session.submit(
        "SELECT objtype, COUNT(objid) AS n FROM photo GROUP BY objtype",
        query_class="batch",
    )
    final = job.wait(timeout=30)
    print(f"\nbatch job {job.job_id}: queued -> {final.value}")
    assert final.value == "done", f"batch job did not finish: {final.value}"
    for row in job.cursor.to_table().data:
        print(f"  objtype {int(row['objtype'])}: {int(row['n'])} objects")

    # 6. A finding chart around the brightest object.
    brightest = photo.sort_by("mag_r").data[0]
    chart = make_finding_chart(
        photo, float(brightest["ra"]), float(brightest["dec"]),
        radius_arcmin=20.0, mag_limit=22.0,
    )
    print(f"\nfinding chart at ra={chart.center_ra:.3f}, dec={chart.center_dec:.3f} "
          f"({chart.object_count()} objects):")
    print(chart.grid)

    session.close()


if __name__ == "__main__":
    main()
