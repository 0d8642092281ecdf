"""The single source of the package version.

Everything that reports a version — ``repro --version``, the ``version``
field stamped into every :class:`~repro.telemetry.manifest.RunManifest`
(hence every ``--json`` payload) and the packaging metadata
(``pyproject.toml`` reads this attribute dynamically) — imports this
string.  Bump it here and nowhere else.

This lives in its own leaf module so layers that must not import the
top-level package (``repro.telemetry`` is imported *by* ``repro``) can
still stamp the version without a cycle.
"""

__version__ = "1.1.0"
