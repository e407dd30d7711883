"""Classical simulator and analysis toolkit for measurement-driven phase
amplification on graph optimization objectives.

Workflow: build a graph (:mod:`phaseamp.graphs`), encode its objective as a
phase histogram (:mod:`phaseamp.encoding`), run post-selected measurement
sequences on the per-level weights (:mod:`phaseamp.amplifier`), cross-check
against the dense two-register simulator (:mod:`phaseamp.fullsim`), apply the
closed forms and bounds (:mod:`phaseamp.analytics`), and regenerate the
benchmark experiments (:mod:`phaseamp.experiments`).
"""

from .meta import __version__
