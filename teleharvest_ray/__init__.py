"""teleharvest_ray — a Ray-Data-native schema + constraint validation engine.

Built from scratch (NOT a port) with the validation semantics of the reference
``igorpuchkovcom/teleharvest`` (read-only at /root/reference), recast per
BASELINE.json's north_rule as a streaming validation engine over Parquet
transcript tables ``(conv_id, turn_idx, role, text, tool, ts)``:

- per-column stats with mergeable sketches (HLL approx-distinct, histogram /
  KLL quantiles) merged in a groupby-aggregate reduce,
- uniqueness on ``(conv_id, turn_idx)`` via per-partition sorted key-hash
  sidecars, with candidates verified file by file,
- referential + gap-free sequence checks under per-conversation sort,
- distribution-drift checks (chi-square / KS / quantile-delta) against a
  broadcast reference-partition profile,
- the reference's short-circuit per-row predicate chain (presence, length,
  stop-word, engagement) with its null-past-failure-point column profile
  (reference: ``processor.py:97-145``, asserted by ``tests/test_processor.py``),
- per-partition pass/fail + violation rows + lineage/metrics checkpoint
  records so a killed run resumes by replaying only unvalidated partitions.

Execution is ``ray.data.Dataset`` streaming ``map_batches`` over zero-copy
Arrow batches, actor pools for stateful stages, with explicit partitioning,
shuffle minimization and skew handling.
"""

__version__ = "0.1.0"
