"""The quadcert benchmark: seeded workload generators, exact references,
an in-memory span tracer and the in-process and cold-process runners.

Every module here imports only the standard library at import time, so the
set-up probe can time ``import quadcert`` (numpy included) from a fresh
interpreter. ``exact`` imports mpmath and is loaded only by the checker.
"""
