"""Graceful-degradation study: recognition under a failing wireless link.

The paper's §IV-D.1 argument — "in a real environment, the network
bandwidth is instability" — is why the binary branch exists: degraded
connectivity should cost accuracy (misses answered by the weaker local
branch), never availability.  This harness sweeps the link's frame-drop
probability from a healthy link to a full partition and reports how the
deployed system degrades: exit rate stays put (it is a property of the
classifier), the fallback rate climbs, latency absorbs the retry cost,
and at 100 % drop the session accuracy lands exactly on the binary
branch's own accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..runtime.network import NetworkLink, RetryPolicy, faulty, four_g
from ..runtime.session import LCRSDeployment, SessionConfig
from .reporting import render_table, shape_check

#: A fast policy for sweeps: two attempts, short windows, tight backoff.
SWEEP_RETRY_POLICY = RetryPolicy(
    max_attempts=2, per_attempt_timeout_ms=250.0, backoff_base_ms=20.0
)


@dataclass(frozen=True)
class DegradationPoint:
    """Session aggregates at one link drop probability."""

    drop_prob: float
    accuracy: float
    exit_rate: float
    fallback_rate: float
    mean_attempts: float
    mean_latency_ms: float
    mean_retry_ms: float


@dataclass
class DegradationResult:
    """The sweep plus the binary branch's standalone accuracy."""

    network: str
    link_name: str
    points: list[DegradationPoint]
    branch_only_accuracy: float

    def render(self) -> str:
        rows = [
            [
                f"{p.drop_prob:.2f}",
                f"{100 * p.accuracy:.1f}",
                f"{100 * p.exit_rate:.0f}",
                f"{100 * p.fallback_rate:.0f}",
                f"{p.mean_attempts:.2f}",
                f"{p.mean_latency_ms:.1f}",
                f"{p.mean_retry_ms:.1f}",
            ]
            for p in self.points
        ]
        table = render_table(
            ["drop", "acc(%)", "exit(%)", "fallback(%)", "attempts", "lat(ms)", "retry(ms)"],
            rows,
            title=(
                f"Graceful degradation — {self.network} over {self.link_name}; "
                f"binary branch alone: {100 * self.branch_only_accuracy:.1f}%"
            ),
        )
        return table

    def shape_checks(self) -> list[str]:
        first, last = self.points[0], self.points[-1]
        monotone_fallback = all(
            a.fallback_rate <= b.fallback_rate + 1e-9
            for a, b in zip(self.points, self.points[1:])
        )
        return [
            shape_check(
                "a fully partitioned link still answers every frame "
                f"(accuracy {100 * last.accuracy:.1f}% = branch-only)",
                last.drop_prob < 1.0
                or abs(last.accuracy - self.branch_only_accuracy) < 1e-9,
            ),
            shape_check(
                "fallback rate grows with link failure "
                f"({100 * first.fallback_rate:.0f}% → {100 * last.fallback_rate:.0f}%)",
                monotone_fallback,
            ),
            shape_check(
                "exit rate is link-independent "
                f"({100 * first.exit_rate:.0f}% throughout)",
                all(p.exit_rate == first.exit_rate for p in self.points),
            ),
        ]


def run_degradation(
    system,
    images: np.ndarray,
    labels: np.ndarray,
    drop_probs: Sequence[float] = (0.0, 0.25, 0.5, 1.0),
    link: Optional[NetworkLink] = None,
    retry_policy: RetryPolicy = SWEEP_RETRY_POLICY,
    batch_size: Optional[int] = None,
    seed: int = 0,
) -> DegradationResult:
    """Sweep frame-drop probability over a calibrated ``system``.

    Every point re-runs the same frames through a fresh deployment whose
    link drops request frames with the given probability; the final
    point is conventionally a full partition so the fallback invariant
    (session accuracy == binary-branch accuracy) is checked end to end.
    """
    base_link = link if link is not None else four_g(seed=seed)
    points: list[DegradationPoint] = []
    branch_only: Optional[float] = None
    for drop in drop_probs:
        run_link = (
            base_link.reseeded(seed)
            if drop == 0.0
            else faulty(base_link.reseeded(seed), "none", seed=seed, drop_prob=drop)
        )
        deployment = LCRSDeployment(system, run_link, retry_policy=retry_policy)
        if branch_only is None:
            _, logits, _, _ = deployment.browser.process_batch(np.asarray(images))
            branch_only = float(
                (logits.argmax(axis=1) == np.asarray(labels)).mean()
            )
        result = deployment.run_session(
            np.asarray(images),
            config=SessionConfig(batch_size=batch_size if batch_size else 1),
        )
        points.append(
            DegradationPoint(
                drop_prob=float(drop),
                accuracy=result.accuracy(labels),
                exit_rate=result.exit_rate,
                fallback_rate=result.fallback_rate,
                mean_attempts=result.mean_attempts,
                mean_latency_ms=result.mean_latency_ms,
                mean_retry_ms=float(
                    np.mean([o.cost.retry_ms for o in result.outcomes])
                ),
            )
        )
    return DegradationResult(
        network=system.model.base_name,
        link_name=base_link.name,
        points=points,
        branch_only_accuracy=float(branch_only),
    )
