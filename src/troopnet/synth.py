"""Synthetic troops, ledgers and detection streams with known ground truth.

The generator builds a troop partitioned into matrilines with strong
within-line and weak cross-line latent association weights, samples focal
videos from those weights, and renders each video as a detection stream
of persistent jittered boxes with configurable false-positive,
false-negative and identity-confusion noise. Because every artefact is
constructed rather than inferred, the outputs double as exact oracles for
the downstream pipeline. The latent weights are an AssociationMatrix, the
type every stage reads, so synth runs on the standard library alone. Each
stream's classes are the roster's names, and its class scores are one row
per detection in that order.

All sampling is deterministic per seed. Each operation derives its own
child seed (see :func:`troopnet.rng.derive_seed`) so the troop, the
ledger and each video's stream are independent of one another and of the
order in which they are generated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .geometry import BBox
from .ingest import (
    AssociationMatrix,
    ClassScores,
    Detection,
    DetectionStream,
    Frame,
    Individual,
    LedgerEntry,
    OccurrenceLedger,
    Roster,
)
from .rng import Rng, derive_seed
from .tracking import Track

__all__ = [
    "NoiseParams",
    "SynthScenario",
    "generate_troop",
    "sample_ledger",
    "sample_detection_stream",
    "build_scenario",
]

_BOX_SIZE = 64.0
_GRID_PITCH = 160.0
_GRID_MARGIN = 16.0


@dataclass(frozen=True)
class NoiseParams:
    fp_rate: float = 0.0
    fn_rate: float = 0.0
    jitter_px: float = 0.0
    id_confusion_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("fp_rate", "fn_rate", "id_confusion_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if not (self.jitter_px >= 0.0 and math.isfinite(self.jitter_px)):
            raise ValueError(f"jitter_px must be finite and non-negative, got {self.jitter_px}")


@dataclass
class SynthScenario:
    roster: Roster
    latent_weights: AssociationMatrix
    ground_truth_ledger: OccurrenceLedger
    ground_truth_tracks: dict[str, list[Track]]
    noise: NoiseParams = field(default_factory=NoiseParams)


def generate_troop(seed: int, n_individuals: int, n_matrilines: int) -> tuple[Roster, AssociationMatrix]:
    """Generate a roster split into matrilines and its latent weight matrix.

    Matriline sizes differ by at most one; names encode the matriline and
    member index (m01i01, m01i02, ...). Within-matriline weights are
    uniform in [0.3, 0.8], cross-matriline in [0, 0.1]. Draw order: per
    individual a sex and age draw, then one weight draw per pair (i, j)
    with i < j in row order.
    """
    if n_individuals < 2:
        raise ValueError(f"n_individuals must be at least 2, got {n_individuals}")
    if not 1 <= n_matrilines <= n_individuals:
        raise ValueError(
            f"n_matrilines must be in [1, {n_individuals}], got {n_matrilines}"
        )
    rng = Rng(derive_seed(seed, "troop"))

    base, remainder = divmod(n_individuals, n_matrilines)
    matriline_of: list[int] = []
    individuals = []
    for line in range(n_matrilines):
        for member in range(1, base + (line < remainder) + 1):
            sex = "female" if rng.random() < 0.5 else "male"
            age = rng.randrange(25)
            individuals.append(Individual(name=f"m{line + 1:02d}i{member:02d}", sex=sex, age_years=age))
            matriline_of.append(line)

    weights = [[0.0] * n_individuals for _ in range(n_individuals)]
    for i in range(n_individuals):
        for j in range(i + 1, n_individuals):
            if matriline_of[i] == matriline_of[j]:
                w = 0.3 + rng.random() * 0.5
            else:
                w = rng.random() * 0.1
            weights[i][j] = weights[j][i] = w
    roster = Roster(individuals)
    return roster, AssociationMatrix(roster.names, weights)


def sample_ledger(scenario: SynthScenario, n_videos: int, seed: int) -> OccurrenceLedger:
    """Sample a focal-video occurrence ledger from the latent weights.

    Video v (id ``v0000``, ``v0001``, ...) takes individual v mod n as its
    focal; every other individual joins independently with probability
    equal to its latent weight to the focal, drawn in roster order.
    """
    if n_videos < 1:
        raise ValueError(f"n_videos must be at least 1, got {n_videos}")
    rng = Rng(derive_seed(seed, "ledger"))
    names = scenario.roster.names
    n = len(names)
    entries = []
    for v in range(n_videos):
        focal = v % n
        weights = scenario.latent_weights.values[focal]
        present = [names[focal]]
        for j in range(n):
            if j == focal:
                continue
            if rng.random() < weights[j]:
                present.append(names[j])
        entries.append(LedgerEntry(video_id=f"v{v:04d}", records=(frozenset(present),)))
    return OccurrenceLedger(entries)


def _grid_origin(slot: int, columns: int) -> tuple[float, float]:
    col = slot % columns
    row = slot // columns
    return (_GRID_MARGIN + col * _GRID_PITCH, _GRID_MARGIN + row * _GRID_PITCH)


def _score_row(n: int, true_position: int, confusion: float) -> list[float]:
    """Scores of n classes: 1 - confusion on the true one, the rest spread evenly over the others."""
    row = [confusion / (n - 1)] * n
    row[true_position] = 1.0 - confusion
    return row


def sample_detection_stream(
    scenario: SynthScenario, entry: LedgerEntry, n_frames: int, seed: int
) -> tuple[DetectionStream, list[Track]]:
    """Render one ledger entry's video as a detection stream plus its true tracks.

    Present individuals (roster order) get persistent disjoint boxes on a
    grid. Per frame and individual the draws are jitter x, jitter y, a
    false-negative coin and a score in [0.5, 1); one false-positive coin
    per frame follows, and a firing coin draws the spurious box's x, y,
    width, height and score. The stream's classes are the roster's names.
    Class scores put 1 - id_confusion_rate on the true identity and spread
    the rest uniformly; each individual's detections share one
    ClassScores, whose positions are the roster's, so a scenario builds no
    name index of its own. The returned tracks are exactly what ideal
    tracking would produce (identity left unset, as tracking itself emits
    it).
    """
    if n_frames < 1:
        raise ValueError(f"n_frames must be at least 1, got {n_frames}")
    roster = scenario.roster
    classes = tuple(roster.names)
    present = [nm for nm in classes if nm in entry.present]
    noise = scenario.noise
    scores = [
        ClassScores(classes, roster.positions, _score_row(len(classes), roster.positions[nm], noise.id_confusion_rate))
        for nm in present
    ]
    rng = Rng(derive_seed(seed, "detections", entry.video_id))

    columns = max(1, math.isqrt(len(present) - 1) + 1) if present else 1
    origins = [_grid_origin(k, columns) for k in range(len(present))]
    span_x = _GRID_MARGIN + columns * _GRID_PITCH
    span_y = _GRID_MARGIN + (len(present) // columns + 1) * _GRID_PITCH

    frames = []
    observations: list[list[Detection]] = [[] for _ in present]
    for fi in range(n_frames):
        detections = []
        for k, (ox, oy) in enumerate(origins):
            jx = (rng.random() * 2.0 - 1.0) * noise.jitter_px
            jy = (rng.random() * 2.0 - 1.0) * noise.jitter_px
            dropped = rng.random() < noise.fn_rate
            score = 0.5 + rng.random() * 0.5
            if dropped:
                continue
            det = Detection(
                frame_index=fi,
                bbox=BBox(ox + jx, oy + jy, _BOX_SIZE, _BOX_SIZE),
                score=score,
                class_scores=scores[k],
            )
            detections.append(det)
            observations[k].append(det)
        if rng.random() < noise.fp_rate:
            x = rng.random() * span_x
            y = rng.random() * span_y
            w = 32.0 + rng.random() * 32.0
            h = 32.0 + rng.random() * 32.0
            score = 0.25 + rng.random() * 0.5
            detections.append(Detection(frame_index=fi, bbox=BBox(x, y, w, h), score=score, class_scores=None))
        frames.append(Frame(frame_index=fi, detections=detections))

    tracks = [
        Track(track_id=k, video_id=entry.video_id, observations=obs)
        for k, obs in enumerate(observations)
        if obs
    ]
    return DetectionStream(video_id=entry.video_id, frames=frames, classes=classes), tracks


def build_scenario(
    seed: int,
    n_individuals: int,
    n_matrilines: int,
    n_videos: int,
    n_frames: int,
    noise: NoiseParams | None = None,
) -> tuple[SynthScenario, dict[str, DetectionStream]]:
    """Assemble a full scenario: troop, ledger, streams and true tracks (noise-free without noise)."""
    roster, weights = generate_troop(seed, n_individuals, n_matrilines)
    scenario = SynthScenario(roster, weights, OccurrenceLedger([]), {}, noise or NoiseParams())
    scenario.ground_truth_ledger = sample_ledger(scenario, n_videos, seed)
    streams = {}
    for entry in scenario.ground_truth_ledger.entries:
        streams[entry.video_id], scenario.ground_truth_tracks[entry.video_id] = sample_detection_stream(
            scenario, entry, n_frames, seed
        )
    return scenario, streams
