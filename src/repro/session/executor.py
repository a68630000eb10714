"""The Executor protocol: how the session facade talks to any backend.

The protocol lives with the physical planner in
:mod:`repro.query.physical` — the engines implement it directly, there
is no adapter layer — and is re-exported here under the name the
session layer has always used:

``prepare(text, allow_tag_route=True, ast=None) -> PreparedQuery``
    Plan, (for distributed backends) split and route, and build the
    execution tree **without starting any thread**; the session owns
    admission, thread start, streaming and cancellation from there —
    an executor has no way to run what it prepares.
``parse``
    ``parse(text) -> AST`` when the backend plans from the parsed query
    (the session parses once and passes ``ast=``); ``None`` when the
    text is opaque to it (a remote archive parses server-side).
``kind``
    A short backend label (``"local"``, ``"distributed"``, ...).

The session also probes for ``supports_mydb``, ``generations_for``
(result-cache validation), ``stats`` and ``mydb_op``.
"""

from repro.query.physical import Executor, PreparedQuery

__all__ = ["PreparedQuery", "Executor"]
