"""Scalable server architectures: the scan, hash, and river machines.

The paper proposes three machine classes for queries the index cannot
serve alone:

* the **scan machine** — a data pump continuously sweeping the whole
  dataset, evaluating every registered user predicate on each object;
  interactively scheduled, so "the query completes within the scan time";
* the **hash machine** — a two-phase spatial analogue of relational
  hash-join: redistribute (with neighborhood edge replication) then
  compare all pairs within each bucket; the tool for gravitational-lens
  searches and clustering;
* the **river machine** — general dataflow graphs whose nodes consume and
  produce streams with partition parallelism; sorting networks are the
  simplest examples.

A query's scan rides the scan machine's shared sweep on one thread per
QET node; its parallelism comes from splitting the data across
partition servers (:mod:`repro.distributed.process` runs one OS process
per server), not from threads inside a node.  Interactive queries start
on the sweep as soon as they are submitted; batch jobs queue on the
session's fair-share queue
(:class:`~repro.machines.scheduler.DeficitRoundRobin`) and run one at a
time.

Real algorithms run at laptop scale; the
:class:`~repro.storage.diskmodel.ClusterModel` supplies simulated-time
numbers for paper-scale datasets.
"""

from repro.machines.streams import BoundedStream, StreamStats
from repro.machines.sweep import SweepScanner, SweepStats, SweepSubscription
from repro.machines.scan import ScanMachine, ScanQuery, SweepReport
from repro.machines.hash import HashMachine, HashReport, PairPredicate
from repro.machines.river import RiverGraph, RiverReport

__all__ = [
    "BoundedStream",
    "StreamStats",
    "SweepScanner",
    "SweepStats",
    "SweepSubscription",
    "ScanMachine",
    "ScanQuery",
    "SweepReport",
    "HashMachine",
    "HashReport",
    "PairPredicate",
    "RiverGraph",
    "RiverReport",
]
