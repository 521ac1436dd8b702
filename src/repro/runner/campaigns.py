"""Campaign definitions: how each experiment splits into shards.

A :class:`CampaignDefinition` gives the runner three pure functions:

``plan(options)``
    Deterministically expand the campaign options into an ordered list
    of :class:`~repro.runner.shards.ShardSpec` — the resumable units.
``execute(params)``
    Compute one shard's payload from its JSON params.  Runs inside an
    isolated worker process; must be deterministic (seeds travel in the
    params) and return JSON-serialisable data.
``finalize(payloads, options)``
    Merge the available shard payloads back into
    :class:`~repro.experiments.results.ExperimentResult` objects.  Must
    tolerate *missing* shards — a degraded campaign finalises whatever
    completed.

Because payloads round-trip through JSON both when checkpointed and
when returned from a worker, an interrupted-and-resumed campaign
finalises byte-identical result files to an uninterrupted one.

These definitions are the only loop over each experiment's points:
:func:`~repro.runner.run_campaign` shards one across forked workers,
and :func:`run_inline` runs the same ``plan``/``execute``/``finalize``
in the calling process (``ftmc fig1``, ``ftmc fig3``, ``ftmc validate``,
...), with the same JSON round trip, so both give the same results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.experiments.fig3 import (
    DEFAULT_FAILURE_PROBABILITIES,
    DEFAULT_UTILIZATIONS,
    FIG3_PANELS,
    fig3_panel_skeleton,
    fig3_point,
)
from repro.experiments.fms_sweep import SWEEP_COLUMNS, sweep_notes, sweep_point
from repro.experiments.results import ExperimentResult
from repro.experiments.tables import (
    table1,
    table2_example31,
    table3_example41,
    table4_fms,
)
from repro.experiments.validation_campaign import (
    validation_point,
    validation_skeleton,
)
from repro.gen.fms import (
    FMS_DEGRADATION_FACTOR,
    FMS_OPERATION_HOURS,
    canonical_fms,
)
from repro.runner.shards import ShardSpec

__all__ = [
    "CampaignDefinition",
    "CampaignConfigError",
    "CAMPAIGNS",
    "get_campaign",
    "campaign_names",
    "build_options",
    "run_inline",
]


class CampaignConfigError(ValueError):
    """Unusable campaign configuration (bad resume state, bad target)."""


@dataclass(frozen=True)
class CampaignDefinition:
    """One experiment's sharding contract (see module docstring)."""

    name: str
    description: str
    default_options: Callable[[], dict[str, Any]]
    plan: Callable[[dict[str, Any]], list[ShardSpec]]
    execute: Callable[[dict[str, Any]], Any]
    finalize: Callable[
        [Mapping[str, Any], dict[str, Any]], list[ExperimentResult]
    ]


# -- fig1 / fig2: one shard per n' sweep point ---------------------------------


def _fms_options(mechanism: str) -> dict[str, Any]:
    options: dict[str, Any] = {
        "mechanism": mechanism,
        "n_prime_max": 4,
        "operation_hours": FMS_OPERATION_HOURS,
        "degradation_factor": None,
    }
    if mechanism == "degrade":
        options["degradation_factor"] = FMS_DEGRADATION_FACTOR
    return options


def _fms_plan(options: dict[str, Any]) -> list[ShardSpec]:
    return [
        ShardSpec(
            id=f"nprime-{n_prime}",
            index=n_prime - 1,
            seed=0,
            params={
                "mechanism": options["mechanism"],
                "n_prime": n_prime,
                "operation_hours": options["operation_hours"],
                "degradation_factor": options["degradation_factor"],
            },
        )
        for n_prime in range(1, int(options["n_prime_max"]) + 1)
    ]


def _fms_execute(params: dict[str, Any]) -> list[Any]:
    row = sweep_point(
        canonical_fms(),
        params["mechanism"],
        int(params["n_prime"]),
        float(params["operation_hours"]),
        params["degradation_factor"],
    )
    return list(row)


def _fms_finalize(
    payloads: Mapping[str, Any],
    options: dict[str, Any],
    name: str,
    description: str,
) -> list[ExperimentResult]:
    result = ExperimentResult(
        name=name, description=description, columns=list(SWEEP_COLUMNS)
    )
    for n_prime in range(1, int(options["n_prime_max"]) + 1):
        payload = payloads.get(f"nprime-{n_prime}")
        if payload is not None:
            result.add_row(*payload)
    result.extend_notes(
        sweep_notes(
            canonical_fms(),
            options["mechanism"],
            float(options["operation_hours"]),
            options["degradation_factor"],
        )
    )
    return [result]


def _fig1_finalize(
    payloads: Mapping[str, Any], options: dict[str, Any]
) -> list[ExperimentResult]:
    return _fms_finalize(
        payloads,
        options,
        "fig1",
        "FMS: impacts of task killing (U_MC and pfh(LO) vs n'_HI)",
    )


def _fig2_finalize(
    payloads: Mapping[str, Any], options: dict[str, Any]
) -> list[ExperimentResult]:
    df = float(options["degradation_factor"])
    return _fms_finalize(
        payloads,
        options,
        "fig2",
        "FMS: impacts of service degradation "
        f"(df={df:g}; U_MC and pfh(LO) vs n'_HI)",
    )


# -- fig3: one shard per (panel, f, utilization) grid point --------------------


def _fig3_options() -> dict[str, Any]:
    return {
        "panels": ["a", "b", "c", "d"],
        "failure_probabilities": [float(f) for f in DEFAULT_FAILURE_PROBABILITIES],
        "utilizations": [float(u) for u in DEFAULT_UTILIZATIONS],
        "sets_per_point": 500,
        "seed": 0,
    }


def _fig3_plan(options: dict[str, Any]) -> list[ShardSpec]:
    shards: list[ShardSpec] = []
    for panel in options["panels"]:
        for f in options["failure_probabilities"]:
            for point_index, utilization in enumerate(options["utilizations"]):
                shards.append(
                    ShardSpec(
                        id=f"{panel}-f{f:g}-u{utilization:g}",
                        index=len(shards),
                        seed=int(options.get("seed", 0)),
                        params={
                            "panel": panel,
                            "failure_probability": float(f),
                            "point_index": point_index,
                            "utilization": float(utilization),
                            "sets_per_point": int(options["sets_per_point"]),
                            "seed": int(options.get("seed", 0)),
                        },
                    )
                )
    return shards


def _fig3_execute(params: dict[str, Any]) -> list[Any]:
    row = fig3_point(
        FIG3_PANELS[params["panel"]],
        float(params["failure_probability"]),
        int(params["point_index"]),
        float(params["utilization"]),
        int(params["sets_per_point"]),
        int(params["seed"]),
    )
    return list(row)


def _fig3_finalize(
    payloads: Mapping[str, Any], options: dict[str, Any]
) -> list[ExperimentResult]:
    results: list[ExperimentResult] = []
    for panel in options["panels"]:
        for f in options["failure_probabilities"]:
            result = fig3_panel_skeleton(FIG3_PANELS[panel], float(f))
            for utilization in options["utilizations"]:
                payload = payloads.get(f"{panel}-f{f:g}-u{utilization:g}")
                if payload is not None:
                    result.add_row(*payload)
            results.append(result)
    return results


# -- tables: one shard per table -----------------------------------------------

_TABLE_PRODUCERS: dict[str, Callable[[], ExperimentResult]] = {
    "table1": table1,
    "table2": table2_example31,
    "table3": table3_example41,
    "table4": table4_fms,
}


def _tables_options() -> dict[str, Any]:
    return {"tables": list(_TABLE_PRODUCERS)}


def _tables_plan(options: dict[str, Any]) -> list[ShardSpec]:
    return [
        ShardSpec(id=name, index=index, seed=0, params={"table": name})
        for index, name in enumerate(options["tables"])
    ]


def _tables_execute(params: dict[str, Any]) -> dict[str, Any]:
    return _TABLE_PRODUCERS[params["table"]]().to_dict()


def _tables_finalize(
    payloads: Mapping[str, Any], options: dict[str, Any]
) -> list[ExperimentResult]:
    return [
        ExperimentResult.from_dict(payloads[name])
        for name in options["tables"]
        if name in payloads
    ]


# -- validation: one shard per (mechanism, utilization) point ------------------


def _validation_options() -> dict[str, Any]:
    return {
        "mechanisms": ["kill", "degrade"],
        "utilizations": [0.5, 0.7, 0.9],
        "sets_per_point": 20,
        "runs_per_set": 3,
        "horizon": 120_000.0,
        "probability_scale": 1000.0,
        "lo_level": "D",
        "degradation_factor": 6.0,
        "seed": 0,
    }


def _validation_plan(options: dict[str, Any]) -> list[ShardSpec]:
    shards: list[ShardSpec] = []
    for mechanism in options["mechanisms"]:
        for point_index, utilization in enumerate(options["utilizations"]):
            shards.append(
                ShardSpec(
                    id=f"{mechanism}-u{utilization:g}",
                    index=len(shards),
                    seed=int(options.get("seed", 0)),
                    params={
                        "mechanism": mechanism,
                        "point_index": point_index,
                        "utilization": float(utilization),
                        "sets_per_point": int(options["sets_per_point"]),
                        "runs_per_set": int(options["runs_per_set"]),
                        "horizon": float(options["horizon"]),
                        "probability_scale": float(options["probability_scale"]),
                        "lo_level": options["lo_level"],
                        "degradation_factor": float(options["degradation_factor"]),
                        "seed": int(options.get("seed", 0)),
                    },
                )
            )
    return shards


def _validation_execute(params: dict[str, Any]) -> list[Any]:
    row = validation_point(
        params["mechanism"],
        int(params["point_index"]),
        float(params["utilization"]),
        sets_per_point=int(params["sets_per_point"]),
        runs_per_set=int(params["runs_per_set"]),
        horizon=float(params["horizon"]),
        probability_scale=float(params["probability_scale"]),
        lo_level=params["lo_level"],
        degradation_factor=float(params["degradation_factor"]),
        seed=int(params["seed"]),
    )
    return list(row)


def _validation_finalize(
    payloads: Mapping[str, Any], options: dict[str, Any]
) -> list[ExperimentResult]:
    results: list[ExperimentResult] = []
    for mechanism in options["mechanisms"]:
        result = validation_skeleton(
            mechanism,
            runs_per_set=int(options["runs_per_set"]),
            horizon=float(options["horizon"]),
            probability_scale=float(options["probability_scale"]),
            lo_level=options["lo_level"],
        )
        for utilization in options["utilizations"]:
            payload = payloads.get(f"{mechanism}-u{utilization:g}")
            if payload is not None:
                result.add_row(*payload)
        results.append(result)
    return results


# -- multicore: one shard per core count ---------------------------------------
# The sweep module imports the planner, which no other experiment loads.


def _multicore_options() -> dict[str, Any]:
    from repro.experiments.multicore_sweep import (
        DEFAULT_CORES,
        DEFAULT_PER_CORE_UTILIZATION,
        DEFAULT_PLANNER_MAX_NODES,
    )

    return {
        "cores": [int(m) for m in DEFAULT_CORES],
        "per_core_utilization": DEFAULT_PER_CORE_UTILIZATION,
        "sets_per_point": 40,
        "backend": "edf-vd",
        "max_nodes": DEFAULT_PLANNER_MAX_NODES,
        "seed": 0,
    }


def _multicore_plan(options: dict[str, Any]) -> list[ShardSpec]:
    return [
        ShardSpec(
            id=f"m{m}",
            index=point_index,
            seed=int(options.get("seed", 0)),
            params={
                "m": int(m),
                "point_index": point_index,
                "per_core_utilization": float(options["per_core_utilization"]),
                "sets_per_point": int(options["sets_per_point"]),
                "backend": options["backend"],
                "max_nodes": int(options["max_nodes"]),
                "seed": int(options.get("seed", 0)),
            },
        )
        for point_index, m in enumerate(options["cores"])
    ]


def _multicore_execute(params: dict[str, Any]) -> list[Any]:
    from repro.experiments.multicore_sweep import multicore_point

    row = multicore_point(
        int(params["m"]),
        int(params["point_index"]),
        float(params["per_core_utilization"]),
        int(params["sets_per_point"]),
        params["backend"],
        int(params["max_nodes"]),
        int(params["seed"]),
    )
    return list(row)


def _multicore_finalize(
    payloads: Mapping[str, Any], options: dict[str, Any]
) -> list[ExperimentResult]:
    from repro.experiments.multicore_sweep import multicore_skeleton

    result = multicore_skeleton(
        float(options["per_core_utilization"]),
        options["backend"],
        int(options["max_nodes"]),
    )
    for m in options["cores"]:
        payload = payloads.get(f"m{m}")
        if payload is not None:
            result.add_row(*payload)
    return [result]


# -- registry ------------------------------------------------------------------

CAMPAIGNS: dict[str, CampaignDefinition] = {
    "fig1": CampaignDefinition(
        name="fig1",
        description="FMS task-killing sweep, one shard per n' point",
        default_options=lambda: _fms_options("kill"),
        plan=_fms_plan,
        execute=_fms_execute,
        finalize=_fig1_finalize,
    ),
    "fig2": CampaignDefinition(
        name="fig2",
        description="FMS degradation sweep, one shard per n' point",
        default_options=lambda: _fms_options("degrade"),
        plan=_fms_plan,
        execute=_fms_execute,
        finalize=_fig2_finalize,
    ),
    "fig3": CampaignDefinition(
        name="fig3",
        description="synthetic acceptance ratios, one shard per grid point",
        default_options=_fig3_options,
        plan=_fig3_plan,
        execute=_fig3_execute,
        finalize=_fig3_finalize,
    ),
    "tables": CampaignDefinition(
        name="tables",
        description="paper tables 1-4, one shard per table",
        default_options=_tables_options,
        plan=_tables_plan,
        execute=_tables_execute,
        finalize=_tables_finalize,
    ),
    "validation": CampaignDefinition(
        name="validation",
        description="simulation validation, one shard per mechanism/point",
        default_options=_validation_options,
        plan=_validation_plan,
        execute=_validation_execute,
        finalize=_validation_finalize,
    ),
    "multicore": CampaignDefinition(
        name="multicore",
        description="FT-MP acceptance vs core count, one shard per m",
        default_options=_multicore_options,
        plan=_multicore_plan,
        execute=_multicore_execute,
        finalize=_multicore_finalize,
    ),
}


def campaign_names() -> list[str]:
    return list(CAMPAIGNS)


def get_campaign(name: str) -> CampaignDefinition:
    try:
        return CAMPAIGNS[name]
    except KeyError:
        known = ", ".join(campaign_names())
        raise ValueError(f"unknown campaign {name!r} (known: {known})") from None


def _floats(values: list[float]) -> list[float]:
    return [float(value) for value in values]


#: Each ``build_options`` knob: the campaign option it sets, the ``ftmc``
#: flag that passes it, and its conversion.
_KNOBS: dict[str, tuple[str, str, Callable[[Any], Any]]] = {
    "seed": ("seed", "--seed", int),
    "sets": ("sets_per_point", "--sets", int),
    "panels": ("panels", "--panels", list),
    "failure_probabilities": (
        "failure_probabilities",
        "--failure-probabilities",
        _floats,
    ),
    "utilizations": ("utilizations", "--utilizations", _floats),
}


def build_options(
    name: str,
    seed: int | None = None,
    sets: int | None = None,
    panels: list[str] | None = None,
    failure_probabilities: list[float] | None = None,
    utilizations: list[float] | None = None,
) -> dict[str, Any]:
    """Merge generic CLI knobs into a campaign's default options.

    A knob left at ``None`` keeps the campaign's own default.  A knob
    the campaign has no option for is refused (``ValueError`` naming
    its flag), never dropped.
    """
    options = get_campaign(name).default_options()
    given = {
        "seed": seed,
        "sets": sets,
        "panels": panels,
        "failure_probabilities": failure_probabilities,
        "utilizations": utilizations,
    }
    for knob, value in given.items():
        if value is None:
            continue
        key, flag, convert = _KNOBS[knob]
        if key not in options:
            raise ValueError(f"campaign {name!r} does not read {flag}")
        options[key] = convert(value)
    return options


def _normalised(data: Any) -> Any:
    """JSON round-trip, so tuples/lists and int/float compare canonically."""
    return json.loads(json.dumps(data))


def _checked_plan(
    campaign: CampaignDefinition, options: dict[str, Any]
) -> list[ShardSpec]:
    """``campaign.plan(options)``, refused when empty or ids repeat."""
    shards = campaign.plan(options)
    if not shards:
        raise CampaignConfigError(f"campaign {campaign.name!r} planned no shards")
    ids = [s.id for s in shards]
    if len(set(ids)) != len(ids):
        raise CampaignConfigError(
            f"campaign {campaign.name!r} has duplicate shard ids"
        )
    return shards


def run_inline(
    experiment: str, options: dict[str, Any] | None = None
) -> list[ExperimentResult]:
    """Run ``experiment``'s campaign definition in the calling process.

    The definition :func:`~repro.runner.run_campaign` shards: ``plan``,
    then each shard's ``execute`` in plan order, then ``finalize``.  Each
    payload takes the JSON round trip a worker gives it, so the results
    equal a campaign's byte for byte.  There is no fork, checkpoint,
    retry, watchdog or output file, and a shard's exception propagates.
    ``options`` defaults to the campaign's ``default_options()``.
    """
    campaign = get_campaign(experiment)
    if options is None:
        options = campaign.default_options()
    payloads = {
        spec.id: _normalised(campaign.execute(dict(spec.params)))
        for spec in _checked_plan(campaign, options)
    }
    return campaign.finalize(payloads, options)
