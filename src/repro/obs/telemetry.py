"""Per-episode RL training telemetry (the ``repro-obs/v2`` payload).

PR 1 made the flow observable; this module makes the *agent* observable.
Each rollout collects, per selection step, the internals the paper's
contribution lives in (attention-based endpoint selection, Eq. 5-7):

* policy entropy of the masked selection distribution ``P_t``;
* attention-logit statistics over the valid endpoints (min / max /
  softmax concentration — see :func:`repro.nn.attention.logit_stats`);
* the selection trajectory itself: endpoint id, step index, and how many
  endpoints the fan-in-cone overlap rule masked so far.

The trainer (:mod:`repro.agent.reinforce`) folds these into one
``kind: "episode"`` run record per episode, together with per-update
gradient norms (pre/post clip), the reward-normalization baseline's
running statistics, the cumulative per-endpoint selection frequency and
the EP-GNN layer gates (γ).

Discipline matches :mod:`repro.obs.core`: collection happens only while
the recorder is enabled — :func:`for_rollout` returns ``None`` otherwise,
so the disabled cost in the rollout hot loop is one function call and one
``is None`` branch per step.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs import core


class EpisodeTelemetry:
    """Per-step collector for one selection episode (one trajectory τ)."""

    __slots__ = ("steps",)

    def __init__(self) -> None:
        self.steps: List[Dict[str, Any]] = []

    def record_step(
        self,
        endpoint: int,
        step: int,
        masked_after: int,
        entropy: float,
        logit_min: float,
        logit_max: float,
        top_prob: float,
        concentration: float,
    ) -> None:
        """Append one selection step.

        ``masked_after`` is the cumulative number of endpoints masked by
        the overlap rule *after* this selection was applied; ``entropy``
        is the Shannon entropy of the masked distribution the action was
        sampled from; the remaining fields are the attention-logit
        diagnostics of the same step.
        """
        self.steps.append(
            {
                "endpoint": int(endpoint),
                "step": int(step),
                "masked_after": int(masked_after),
                "entropy": float(entropy),
                "logit_min": float(logit_min),
                "logit_max": float(logit_max),
                "top_prob": float(top_prob),
                "concentration": float(concentration),
            }
        )

    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, Any]:
        """Aggregates over the episode's steps (empty-safe)."""
        if not self.steps:
            return {
                "num_steps": 0,
                "entropy_mean": None,
                "entropy_first": None,
                "entropy_last": None,
                "logit_min": None,
                "logit_max": None,
                "top_prob_mean": None,
                "concentration_mean": None,
                "masked_total": 0,
            }
        entropies = [s["entropy"] for s in self.steps]
        n = len(self.steps)
        return {
            "num_steps": n,
            "entropy_mean": sum(entropies) / n,
            "entropy_first": entropies[0],
            "entropy_last": entropies[-1],
            "logit_min": min(s["logit_min"] for s in self.steps),
            "logit_max": max(s["logit_max"] for s in self.steps),
            "top_prob_mean": sum(s["top_prob"] for s in self.steps) / n,
            "concentration_mean": sum(s["concentration"] for s in self.steps) / n,
            "masked_total": self.steps[-1]["masked_after"],
        }

    def payload(self) -> Dict[str, Any]:
        """The ``telemetry`` sub-object of a v2 ``episode`` record."""
        return {**self.summary(), "steps": list(self.steps)}


def for_rollout() -> Optional[EpisodeTelemetry]:
    """A fresh collector while the recorder is enabled, else ``None``.

    The ``None`` return is the disabled fast path: rollouts guard every
    telemetry computation behind ``collector is not None``, so switched-off
    observability costs one branch per selection step.
    """
    if not core.enabled():
        return None
    return EpisodeTelemetry()


def episode_payload(
    base: Dict[str, Any],
    telemetry: Optional[EpisodeTelemetry],
    *,
    baseline: Optional[Dict[str, Any]] = None,
    selection_frequency: Optional[Dict[int, int]] = None,
    gnn_gamma: Optional[List[float]] = None,
) -> Dict[str, Any]:
    """Assemble the full v2 ``episode`` payload.

    ``base`` carries the reward-level fields (episode, seed, reward, tns,
    wns, nve, num_selected, advantage); everything telemetry-specific nests
    under ``telemetry``, so consumers that only look at top-level keys
    ignore it.  Gradient norms are stitched in by the trainer
    after the optimizer step (see ``agent.reinforce``), since they only
    exist once the episode's update has run.
    """
    payload = dict(base)
    tele: Dict[str, Any] = telemetry.payload() if telemetry is not None else {}
    if baseline is not None:
        tele["baseline"] = dict(baseline)
    if selection_frequency is not None:
        # JSON object keys are strings; stringify deterministically here
        # instead of relying on the encoder's implicit int-key coercion.
        tele["selection_frequency"] = {
            str(endpoint): int(count)
            for endpoint, count in sorted(selection_frequency.items())
        }
    if gnn_gamma is not None:
        tele["gnn_gamma"] = [float(g) for g in gnn_gamma]
    payload["telemetry"] = tele or None
    return payload
