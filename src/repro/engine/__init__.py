"""Vectorized sweep engine: batched roofline evaluation of config spaces.

The paper's recipe (Sec. V) exhaustively measures every feasible
configuration of every operator; that sweep is the hot path behind the
violin plots, the configuration-selection graph, the framework baselines
and the sensitivity analyses.  This subsystem replaces the per-config
scalar loop with a batched pipeline:

1. :mod:`repro.engine.space` enumerates a config space once into
   structure-of-arrays form (layout indices, vector/warp dims, algorithm,
   tensor-core flags) using the exact enumeration order of
   :mod:`repro.layouts.configspace`; kernel spaces larger than the cap (by
   more than ``k`` times at large caps) are subsampled by
   :mod:`repro.engine.sampling`, which replays the scalar sampler's random
   draws in bulk, and smaller ones are swept whole
   (:func:`repro.layouts.configspace.sweeps_whole`);
2. :mod:`repro.engine.batched` evaluates the roofline formula
   ``launch + max(flop/(peak·eff_c), bytes/(bw·eff_m))`` over NumPy arrays,
   hoisting all per-(op, env) work out of the loop while staying
   **bit-identical** to the scalar cost model (tier-1 pins
   ``sweep_op`` == ``sweep_op_reference``);
3. :mod:`repro.engine.store` packages the stable-sorted result as a
   serializable payload, and :mod:`repro.engine.sweep` materializes
   ``ConfigMeasurement`` objects from it lazily;
4. :mod:`repro.engine.scheduler` resolves every sweep through one tier
   chain: a byte-bounded payload L1 (:mod:`repro.engine.memo`) over the
   persistent content-addressed store (:mod:`repro.engine.store`, L2,
   enabled with ``REPRO_SWEEP_STORE`` / ``--sweep-store``), both keyed by
   a digest that embeds ``COST_MODEL_VERSION``, then a delta re-sweep from
   a stored structural twin — found in the store directory named by the
   digest's structural first half — then a cold evaluation.  Whole graphs are
   deduplicated by digest up front and cold sweeps fan out over a process
   pool (``jobs`` / ``--jobs``), merging byte-for-byte equal to the
   serial path.

All sweep consumers (`repro.autotuner.tuner.sweep_op` / ``sweep_graph``)
route through here; the scalar reference stays available as
``repro.autotuner.tuner.sweep_op_reference``.
"""

from .memo import clear_sweep_memo, sweep_memo_stats
from .sampling import kernel_index_array
from .space import (
    ContractionSpace,
    KernelSpace,
    enumerate_contraction_space,
    enumerate_kernel_space,
)
from .batched import evaluate_contraction, evaluate_kernel
from .store import (
    SweepStore,
    compute_payload,
    compute_payload_delta,
    get_sweep_store,
    pack_payload_bytes,
    read_payload,
    set_sweep_store,
    structural_sweep_digest,
    sweep_digest,
    sweep_store_stats,
)
from .scheduler import (
    contraction_time_split,
    resolve_jobs,
    set_default_jobs,
    sweep_graph,
    sweep_op,
)
from .sweep import PreSortedMeasurements, delta_payload_from_store, sweep_from_payload

__all__ = [
    "ContractionSpace",
    "KernelSpace",
    "PreSortedMeasurements",
    "SweepStore",
    "clear_sweep_memo",
    "compute_payload",
    "compute_payload_delta",
    "contraction_time_split",
    "delta_payload_from_store",
    "enumerate_contraction_space",
    "enumerate_kernel_space",
    "evaluate_contraction",
    "evaluate_kernel",
    "get_sweep_store",
    "kernel_index_array",
    "pack_payload_bytes",
    "read_payload",
    "resolve_jobs",
    "set_default_jobs",
    "set_sweep_store",
    "structural_sweep_digest",
    "sweep_digest",
    "sweep_from_payload",
    "sweep_graph",
    "sweep_memo_stats",
    "sweep_op",
    "sweep_store_stats",
]
