"""Exception types of the multi-tenant service tier.

All subclass :class:`~repro.session.core.SessionError`, so session-level
handlers and the wire protocol's error frames treat them uniformly with
the rest of the session API.
"""

from __future__ import annotations

from repro.session.core import SessionError

__all__ = [
    "ServiceError",
    "AuthenticationError",
    "QuotaExceededError",
    "MyDBError",
]


class ServiceError(SessionError):
    """Base class of service-tier errors."""


class AuthenticationError(ServiceError):
    """Unknown user or bad token, or no identity where one is required."""


class QuotaExceededError(ServiceError):
    """A per-user quota (MyDB bytes, queued batch jobs) was exceeded."""


class MyDBError(ServiceError):
    """Misuse of a MyDB workspace (unknown table, bad table name, ...)."""
