"""Validation configuration.

The reference externalizes every behavioural threshold through env settings
(``settings.py:8-21``): min_len=200, min_views=50, min_er=0.025, min_score=80,
min_score_alt=85, a comma-split stop-word list (``settings.py:17-21``) and
channel list. We keep the same knobs (same defaults) as a plain dataclass,
plus the target-only knobs the north_rule adds (drift thresholds, sketch
precision).
"""

from __future__ import annotations

import os
from dataclasses import dataclass


# Default stop-word patterns: substring regexes, like the reference's
# (settings.py:17-21; prefix matching asserted by tests/test_settings.py:71-77,
# e.g. "эзотери" must match "эзотерика").
DEFAULT_STOP_WORDS = ("астролог", "эзотери", "таро", "гадан")


@dataclass(frozen=True)
class ValidationConfig:
    # --- reference thresholds (settings.py:11-17) ---
    min_len: int = 200  # PROCESSOR_MIN_LEN, settings.py:13
    min_views: int = 50  # PROCESSOR_MIN_VIEWS, settings.py:14
    min_er: float = 0.025  # PROCESSOR_MIN_ER, settings.py:12
    min_score: float = 80.0  # PROCESSOR_MIN_SCORE, settings.py:15
    min_score_alt: float = 85.0  # PROCESSOR_MIN_SCORE_ALT, settings.py:16
    stop_words: tuple[str, ...] = DEFAULT_STOP_WORDS
    # Credits gate analog (processor.py:32-35,121-122): when False, the
    # scoring sub-chain (low_score / low_score_alt and their derived columns)
    # is skipped entirely and rows pass with those columns null.
    scoring_enabled: bool = True
    # Scorer injection seam (the reference's evaluation/rewrite ABC,
    # services/interfaces.py:22-48): "builtin" = the deterministic
    # textfuncs kernels; "module:factory" = construct a custom scorer once
    # per process (functions/scoring.get_scorer).
    scorer: str = "builtin"

    # --- target-only knobs (north_rule) ---
    # Drift thresholds on the *statistics* (not p-values; scipy-free).
    drift_chi2_threshold: float = 0.2  # normalized chi-square / n
    drift_ks_threshold: float = 0.15  # KS ECDF max distance
    drift_quantile_rel_threshold: float = 0.5  # relative quantile delta
    # Sketch precision.
    hll_p: int = 14  # 2^14 registers, ~0.8% rel. error
    kll_k: int = 200
    # Length-histogram bin width (chars); exact & mergeable for KS.
    len_hist_bin: int = 32
    len_hist_max: int = 8192

    # --- execution knobs ---
    # CPUs requested per PartitionValidator actor: the validator is single-
    # threaded, so one actor per free session CPU. Set from the measured
    # crossover: a whole run_validation over a seeded 67k-turn, 12-partition
    # datagen corpus (hot_conv=True), each run in a fresh Ray session on a
    # 4-CPU box, three runs, seconds (median in brackets), with the actors
    # that the session places:
    #
    #   session   2 CPUs/actor          1 CPU/actor           0.5 CPU/actor
    #   2 CPUs    4.56-5.09 (4.98) 1    3.85-3.89 (3.85) 2    3.12-3.98 (3.94) 4
    #   4 CPUs    2.92-3.38 (3.10) 2    2.84-3.20 (3.09) 4    3.58-4.24 (3.72) 8
    #
    # One CPU per actor ties two at 4 CPUs and is 23% faster at 2, where a
    # 2-CPU actor leaves a CPU idle; half a CPU per actor oversubscribes the
    # session. Sessions above 4 CPUs are unmeasured at this default, and the
    # one earlier figure from a larger node contradicts it: on a 32-vCPU
    # node, 16 actors took 20.6 s and 32 actors 74 s on the same input (read
    # as memory-bandwidth bound). Measure such nodes before relying on 1.
    validator_num_cpus: float = 1.0

    # Declaratively disabled checks (the check-registry extension seam,
    # SURVEY.md §2.9): ids from schema.CHAIN_CHECKS / schema.GLOBAL_CHECKS.
    disabled_checks: tuple[str, ...] = ()

    def stop_words_csv(self) -> str:
        return ",".join(self.stop_words)

    @classmethod
    def from_env(cls, env: dict | None = None) -> "ValidationConfig":
        """Build from environment variables using the reference's setting
        names (``settings.py:8-21``); the comma-split stop-word list mirrors
        ``settings.py:20-21`` (split asserted by tests/test_settings.py:71-77).
        Unset variables keep the defaults."""
        e = os.environ if env is None else env
        kw = {}
        for name, key, cast in (
            ("min_len", "PROCESSOR_MIN_LEN", int),
            ("min_views", "PROCESSOR_MIN_VIEWS", int),
            ("min_er", "PROCESSOR_MIN_ER", float),
            ("min_score", "PROCESSOR_MIN_SCORE", float),
            ("min_score_alt", "PROCESSOR_MIN_SCORE_ALT", float),
        ):
            if key in e:
                kw[name] = cast(e[key])
        if "PROCESSOR_STOP_WORDS" in e:
            kw["stop_words"] = tuple(w for w in e["PROCESSOR_STOP_WORDS"].split(",") if w)
        if "VALIDATOR_DISABLED_CHECKS" in e:
            kw["disabled_checks"] = tuple(w for w in e["VALIDATOR_DISABLED_CHECKS"].split(",") if w)
        if "PROCESSOR_SCORING_ENABLED" in e:
            kw["scoring_enabled"] = e["PROCESSOR_SCORING_ENABLED"].lower() not in ("0", "false", "no")
        return cls(**kw)


DEFAULT_CONFIG = ValidationConfig()
