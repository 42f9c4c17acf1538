"""Wire formats.

Parsers and writers for every file the toolkit reads or emits: rosters,
COCO-style ground truth, per-frame detection streams, occurrence ledgers
(one OccurrenceLedger type for both association modes, in a presence and a
pair format), association matrices, track files, report JSON and
identification samples (parse_id_samples). All text is UTF-8 with LF line
endings, and writers are deterministic so identical data always produces
identical bytes.

A detection stream and a tracks file name their classes once, on a first
{"classes": [...]} line, and each detection gives its class scores as one
list in that order, held in memory as a ClassScores over the file's shared
names. Identification samples keep an object of names and scores each.

Every parser rejects bad input one way. A field check raises ValueError
naming the field, given as its what argument ("score: expected a number,
got '1'"), and the parser adds the record's place once, through _raise_at,
nesting for sub-records ("line 3: detection 1: score: ..."). The CLI then
prefixes the file, so a message reads <file>: <record>: <field>: <problem>.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import tempfile
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import NoReturn

from .geometry import BBox

__all__ = [
    "ParseError",
    "Individual",
    "Roster",
    "ClassScores",
    "Detection",
    "Frame",
    "DetectionStream",
    "LedgerEntry",
    "OccurrenceLedger",
    "AssociationMatrix",
    "parse_roster",
    "write_roster",
    "parse_ground_truth",
    "parse_detection_stream",
    "write_detection_stream",
    "parse_occurrence_ledger",
    "write_ledger",
    "parse_pair_ledger",
    "write_pair_ledger",
    "parse_association_matrix",
    "write_matrix",
    "parse_tracks",
    "write_tracks",
    "parse_report",
    "write_report",
    "parse_id_samples",
    "write_json",
    "atomic_write_text",
    "atomic_write_bytes",
]

SEXES = ("female", "male", "unknown")
_ROSTER_HEADER = ("name", "sex", "age_years")
_LEDGER_HEADER = ("video_id", "present")
_PAIR_LEDGER_HEADER = ("video_id", "pair")

MIRROR_TOLERANCE = 1e-9  # max allowed disagreement between mirror cells
SYMMETRY_TOLERANCE = 1e-12
_BLANK = " \t\r\n"  # JSON's whitespace: a JSON-lines line or a matrix cell of only these is blank


class ParseError(ValueError):
    """Input file violates its format; the message names the locus."""


def _raise_at(place: str, exc: Exception) -> NoReturn:
    """Raise exc as a ParseError at place, as in "line 3: ...". A sub-record's
    ParseError is a ValueError, so the record around it places it again."""
    raise ParseError(f"{place}: {exc}") from None


def _num(x, what: str = "") -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"{what}expected a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:  # an integer beyond float range
        raise ValueError(f"{what}expected a number, got an integer too large for a float") from None


def _bbox(raw) -> BBox:
    """A bbox field [x, y, w, h]; a bad number is named by its index."""
    if not isinstance(raw, list) or len(raw) != 4:
        raise ValueError("bbox must be [x, y, w, h]")
    try:
        return BBox(*map(_num, raw))
    except ValueError:
        for k, v in enumerate(raw):  # raises for the first side that is no number
            _num(v, f"bbox[{k}]: ")
        raise  # the box rule's own error


def _int(x, what: str = "") -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what}expected an integer, got {x!r}")
    return x


def _str(x, what: str) -> str:
    if not isinstance(x, str):
        raise ValueError(f"{what} must be a string, got {x!r}")
    return x


def _list(x, what: str) -> list:
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a list, got {x!r}")
    return x


def _object(x, what: str) -> dict:
    if not isinstance(x, dict):
        raise ValueError(f"{what} must be an object, got {x!r}")
    return x


def _key(obj: dict, key: str, what: str = ""):
    """obj[key], or an error naming the missing key."""
    if key not in obj:
        raise ValueError(f"{what}needs {key!r}")
    return obj[key]


def _cell_number(cell: str, convert, what: str = ""):
    """convert(cell), convert being int or float, refusing the digit-group
    underscores and non-ASCII digits they allow."""
    if "_" not in cell and cell.isascii():
        try:
            return convert(cell)
        except ValueError:
            pass
    raise ValueError(f"{what}{cell!r} is not {'an integer' if convert is int else 'a number'}")


def _check_id(x, what: str) -> int | str:
    """Record ids are JSON integers or strings, never lists, objects or bools."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"{what} must be an integer or a string, got {x!r}")
    return x


def _on_roster(name: str, roster: Roster | None, where: str = "") -> str:
    """name, refused unless roster is None or holds it; where ends the error, as in " in identity"."""
    if roster is not None and name not in roster:
        raise ValueError(f"unknown individual {name!r}{where}")
    return name


# ---------------------------------------------------------------------------
# framing: text, JSON values, CSV tables and JSON-lines records


def _text(data: str | bytes) -> str:
    return data.decode("utf-8-sig") if isinstance(data, bytes) else data  # less a leading BOM


def _loads(text: str, locus: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        _raise_at(f"{locus}: malformed JSON", exc)


def _csv_records(data: str | bytes, what: str):
    """Yield each row of a CSV table, read as the csv module asks: from a
    newline="" stream, so a row ends at LF, CRLF or a bare CR, and a quoted
    cell keeps its line breaks. A row the reader refuses (a cell past its
    field size limit) raises ParseError naming the physical line.
    """
    reader = csv.reader(io.StringIO(_text(data), newline=""))
    try:
        yield from reader
    except csv.Error as exc:
        _raise_at(f"{what} line {reader.line_num}", exc)


def _csv_rows(data: str | bytes, what: str, header: tuple[str, ...]):
    """Yield (line number, row) for each data row of a CSV table.

    The first row must be exactly header. Rows whose cells are all empty
    are skipped; every other row must have one cell per header column.
    Line numbers count CSV records from 1, the header included.
    """
    rows = _csv_records(data, what)
    if next(rows, None) != list(header):
        raise ParseError(f"{what}: expected header '{','.join(header)}'")
    for lineno, row in enumerate(rows, start=2):
        if not row or all(cell == "" for cell in row):
            continue
        if len(row) != len(header):
            raise ParseError(f"{what} line {lineno}: expected {len(header)} columns, got {len(row)}")
        yield lineno, row


def _json_lines(data: str | bytes, prefix: str):
    """Yield (line number, value) for each non-blank line of a JSON-lines file.

    Lines end at "\n" only: U+2028, U+2029 and U+0085 may stand unescaped
    inside a JSON string, and the writers leave them so. A CRLF line keeps
    its "\r", which JSON reads as whitespace. A line of only JSON whitespace
    is blank; any other must be JSON, or ParseError is raised located as
    prefix + "line N". Line numbers count from 1, blank lines included.
    """
    for lineno, line in enumerate(_text(data).split("\n"), start=1):
        if line.strip(_BLANK):
            yield lineno, _loads(line, f"{prefix}line {lineno}")


def _write_csv(header, rows) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return out.getvalue()


def _write_json_lines(objs) -> str:
    return "".join(json.dumps(obj, separators=(",", ":"), ensure_ascii=False) + "\n" for obj in objs)


# ---------------------------------------------------------------------------
# roster


@dataclass(frozen=True)
class Individual:
    name: str
    sex: str = "unknown"
    age_years: int | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("individual name must be non-empty")
        if "," in self.name:  # ledger cells join names with commas
            raise ValueError(f"individual name {self.name!r} contains a comma")
        if self.sex not in SEXES:
            raise ValueError(f"sex must be one of {SEXES}, got {self.sex!r}")
        if self.age_years is not None:
            if not isinstance(self.age_years, int) or self.age_years < 0:
                raise ValueError(f"age_years must be a non-negative integer, got {self.age_years!r}")


@dataclass(frozen=True)
class Roster:
    """The known individuals, in order; positions maps each name to its index."""

    individuals: tuple[Individual, ...]
    positions: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "individuals", tuple(self.individuals))
        if not self.individuals:
            raise ValueError("needs at least one individual")
        object.__setattr__(self, "positions", {})
        for i, ind in enumerate(self.individuals):
            if self.positions.setdefault(ind.name, i) != i:
                raise ValueError(f"duplicate individual name {ind.name!r}")

    @property
    def names(self) -> list[str]:
        return [ind.name for ind in self.individuals]

    def __contains__(self, name: str) -> bool:
        return name in self.positions

    def __len__(self) -> int:
        return len(self.individuals)


def parse_roster(text: str | bytes) -> Roster:
    """Parse a roster CSV with header name,sex,age_years.

    A blank age cell means the age is unknown.
    """
    individuals = []
    for lineno, (name, sex, age_cell) in _csv_rows(text, "roster", _ROSTER_HEADER):
        try:
            age = None if age_cell == "" else _cell_number(age_cell, int, "age_years ")
            individuals.append(Individual(name=name, sex=sex, age_years=age))
        except ValueError as exc:
            _raise_at(f"roster line {lineno}", exc)
    try:
        return Roster(individuals)
    except ValueError as exc:
        _raise_at("roster", exc)


def write_roster(roster: Roster) -> str:
    return _write_csv(
        _ROSTER_HEADER,
        ([ind.name, ind.sex, "" if ind.age_years is None else ind.age_years] for ind in roster.individuals),
    )


# ---------------------------------------------------------------------------
# ground truth


def parse_ground_truth(data: str | bytes) -> dict[str, dict[int, list[BBox]]]:
    """Parse a COCO-style ground-truth JSON document into video -> frame -> boxes.

    Recognized structure: top-level "images", "annotations" and optional
    "categories" lists. Image records may carry "video_id" (a string) and
    "frame_index"; absent, the video id defaults to "" and the frame index
    to the image id, which must then be an integer. No two images share a
    (video_id, frame_index). Unknown fields are ignored. Boxes are
    [x, y, w, h], must be valid and must lie within the image bounds.
    Each annotation names a known category or carries a string label; both
    are checked, neither is kept. Videos and frames follow document order,
    boxes annotation order; an image without annotations is a frame with
    no boxes.
    """
    doc = _loads(_text(data), "ground truth")
    try:
        if not isinstance(doc, dict):
            raise ValueError("top level must be a JSON object")
        cats, imgs, anns = (_list(doc.get(key, []), key) for key in ("categories", "images", "annotations"))

        categories = set()
        for i, cat in enumerate(cats):
            try:
                if not isinstance(cat, dict) or "id" not in cat or "name" not in cat:
                    raise ValueError("needs 'id' and 'name'")
                if _check_id(cat["id"], "'id'") in categories:
                    raise ValueError(f"duplicate category id {cat['id']}")
                _str(cat["name"], "name")
            except ValueError as exc:
                _raise_at(f"category {i}", exc)
            categories.add(cat["id"])

        videos: dict[str, dict[int, list[BBox]]] = {}
        by_id: dict[int | str, tuple[float, float, list[BBox]]] = {}  # image id -> width, height, its frame's boxes
        owners: dict[tuple[str, int], int | str] = {}  # (video_id, frame_index) -> image id
        for i, rec in enumerate(imgs):
            place = f"image {i}"
            try:
                if not isinstance(rec, dict) or "id" not in rec:
                    raise ValueError("missing 'id'")
                img_id = _check_id(rec["id"], "'id'")
                if img_id in by_id:
                    raise ValueError(f"duplicate image id {img_id}")
                place = f"image {i} (id {img_id})"
                try:
                    width = _num(rec["width"])
                    height = _num(rec["height"])
                except (KeyError, ValueError):
                    raise ValueError("needs numeric 'width' and 'height'") from None
                if not (0 < width < math.inf and 0 < height < math.inf):  # also rejects NaN
                    raise ValueError(f"dimensions must be positive and finite, got {width}x{height}")
                if "frame_index" not in rec and not isinstance(img_id, int):
                    place = f"image {i}"  # the id's fault, so the id is not repeated
                    raise ValueError(f"needs 'frame_index' (image id {img_id!r} is not an integer)")
                frame_index = rec.get("frame_index", img_id)
                if isinstance(frame_index, bool) or not isinstance(frame_index, int):
                    raise ValueError("frame_index must be an integer")
                video_id = _str(rec.get("video_id", ""), "video_id")
                owner = owners.setdefault((video_id, frame_index), img_id)
                if owner != img_id:
                    raise ValueError(f"video {video_id!r} frame {frame_index} already belongs to image id {owner!r}")
            except ValueError as exc:
                _raise_at(place, exc)
            boxes = videos.setdefault(video_id, {})[frame_index] = []
            by_id[img_id] = (width, height, boxes)

        for i, rec in enumerate(anns):
            try:
                if not isinstance(rec, dict):
                    raise ValueError("not an object")
                if "image_id" in rec:
                    _check_id(rec["image_id"], "image_id")
                img = by_id.get(rec.get("image_id"))
                if img is None:
                    raise ValueError(f"unknown image_id {rec.get('image_id')!r}")
                width, height, boxes = img
                box = _bbox(rec.get("bbox"))
                if box.x < 0 or box.y < 0 or box.x + box.w > width or box.y + box.h > height:
                    raise ValueError(f"bbox exceeds image bounds ({width}x{height})")
                if "category_id" in rec:
                    if _check_id(rec["category_id"], "category_id") not in categories:
                        raise ValueError(f"unknown category_id {rec['category_id']!r}")
                elif "label" in rec:
                    _str(rec["label"], "label")
                else:
                    raise ValueError("needs 'category_id' or 'label'")
            except ValueError as exc:
                _raise_at(f"annotation {i}", exc)
            boxes.append(box)
    except ValueError as exc:
        _raise_at("ground truth", exc)
    return videos


# ---------------------------------------------------------------------------
# detection streams


class ClassScores(Mapping):
    """One detection's class scores: a read-only name -> score mapping.

    row holds one score per class in the order of names, the class list of
    the whole stream, so cs[name], iteration (in class order) and
    comparison with a dict work as on a dict of the scores. positions maps
    each name to its place in names. Build names and positions once per
    class list and share them by reference: a stream's classes line gives
    one pair, a synth roster another (its positions), never one per
    detection. Nothing is checked here; the parsers check a row against its
    class list once, where it enters.
    """

    __slots__ = ("names", "positions", "row")

    def __init__(self, names: tuple[str, ...], positions: dict[str, int], row: list[float]):
        self.names = names
        self.positions = positions
        self.row = row

    def __getitem__(self, name: str) -> float:
        return self.row[self.positions[name]]

    def __iter__(self):
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        return f"ClassScores({dict(self)!r})"


@dataclass
class Detection:
    """One detected face: the only per-box record, in streams and in tracks alike."""

    frame_index: int
    bbox: BBox
    score: float
    class_scores: ClassScores | None = None


@dataclass
class Frame:
    frame_index: int
    detections: list[Detection] = field(default_factory=list)


@dataclass
class DetectionStream:
    """A video's frames; classes names the class_scores rows, () when no
    detection carries any."""

    video_id: str
    frames: list[Frame] = field(default_factory=list)
    classes: tuple[str, ...] = ()

    @property
    def detection_count(self) -> int:
        return sum(len(f.detections) for f in self.frames)


def _class_scores(raw, roster: Roster | None) -> dict[str, float]:
    """An identification sample's class-score check: a non-empty object of
    numbers in [0, 1], names in the roster if given.

    An object of floats that passes as a whole is returned as it is, not
    copied; any other goes to _class_scores_by_name, which converts
    integers or raises naming the first bad entry.
    """
    if type(raw) is dict and raw and (roster is None or raw.keys() <= roster.positions.keys()):
        values = raw.values()
        # min and max skip a NaN that is not first; the sum carries it
        if {*map(type, values)} == {float} and 0.0 <= min(values) and max(values) <= 1.0:
            if not math.isnan(sum(values)):
                return raw
    return _class_scores_by_name(raw, roster)


def _class_scores_by_name(raw, roster: Roster | None) -> dict[str, float]:
    if not isinstance(raw, dict) or not raw:
        raise ValueError("class_scores must be a non-empty object")
    scores = {}
    for name, value in raw.items():
        _on_roster(name, roster, " in class_scores")
        v = _num(value, f"class_scores[{name!r}]: ")
        if not 0.0 <= v <= 1.0:  # also rejects NaN
            raise ValueError(f"class_scores[{name!r}] = {v} outside [0, 1]")
        scores[name] = v
    return scores


def _classes_line(records, roster: Roster | None, prefix: str):
    """Split a stream's or a tracks file's classes line off its records:
    (names, positions, the other records), names and positions None
    without one.

    The classes line is the first record, {"classes": [...]}: distinct
    strings, each on the roster when one is given, checked here once per
    file. Without it, no record may carry class scores.
    """
    first = next(records, None)
    if first is None or not (isinstance(first[1], dict) and "classes" in first[1]):
        return None, None, itertools.chain([first] if first else [], records)
    lineno, obj = first
    try:
        names = obj["classes"]
        if not isinstance(names, list) or not names:
            raise ValueError(f"classes must be a non-empty list, got {names!r}")
        positions: dict[str, int] = {}
        for k, name in enumerate(names):
            _on_roster(_str(name, f"classes[{k}]"), roster, " in classes")
            if positions.setdefault(name, k) != k:
                raise ValueError(f"duplicate class {name!r} in classes")
    except ValueError as exc:
        _raise_at(f"{prefix}line {lineno}", exc)
    return tuple(names), positions, records


def _class_row(raw, names: tuple[str, ...] | None) -> list[float]:
    """The one check of a detection's class scores: a list of one number in
    [0, 1] per class, in the order of the classes line.

    A list of floats that passes as a whole is returned as it is, not
    copied; any other goes to _class_row_by_index, which converts integers
    or raises naming the first bad entry.
    """
    if type(raw) is list and names is not None and len(raw) == len(names):
        # min and max skip a NaN that is not first; the sum carries it
        if {*map(type, raw)} == {float} and 0.0 <= min(raw) and max(raw) <= 1.0:
            if not math.isnan(sum(raw)):
                return raw
    return _class_row_by_index(raw, names)


def _class_row_by_index(raw, names: tuple[str, ...] | None) -> list[float]:
    if isinstance(raw, dict):
        raise ValueError('class_scores is an object; scores are now a list in the order of the "classes" line')
    if names is None:
        raise ValueError('class_scores needs a "classes" line first in the file')
    _list(raw, "class_scores")
    if len(raw) != len(names):
        raise ValueError(f"class_scores has {len(raw)} entries; the classes line names {len(names)}")
    row = []
    for k, value in enumerate(raw):
        v = _num(value, f"class_scores[{k}]: ")
        if not 0.0 <= v <= 1.0:  # also rejects NaN
            raise ValueError(f"class_scores[{k}] = {v} outside [0, 1]")
        row.append(v)
    return row


def _parse_detection(obj, frame_index: int | None, names, positions) -> Detection:
    """One detection record: bbox [x, y, w, h], score in [0, 1], optional
    class_scores over the classes names (None without a classes line).

    The fields are checked in that order, and the first bad one is named.
    Integers are converted to floats.
    """
    if not isinstance(obj, dict):
        raise ValueError("not an object")
    box = _bbox(obj.get("bbox"))
    score = _num(obj.get("score"), "score: ")
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score {score} outside [0, 1]")
    raw_scores = obj.get("class_scores")
    class_scores = None if raw_scores is None else ClassScores(names, positions, _class_row(raw_scores, names))
    return Detection(frame_index, box, score, class_scores)


def parse_detection_stream(data: str | bytes, video_id: str, roster: Roster | None = None) -> DetectionStream:
    """Parse a detection stream from JSON-lines, one frame object per line.

    The first line, {"classes": [...]}, names the classes once; it may be
    left out when no detection carries class_scores. Each later line is
    {"frame_index": int, "detections": [...]} with detections carrying
    "bbox", "score" and optionally "class_scores", a list of one score per
    class in the order of the classes line. Frame indices must be strictly
    increasing; the file is rejected, not re-sorted, when they are not.
    When a roster is given, every class must be on it. Blank lines are
    ignored.
    """
    names, positions, records = _classes_line(_json_lines(data, ""), roster, "")
    frames: list[Frame] = []
    prev_index = None
    for lineno, obj in records:
        try:
            index = obj.get("frame_index") if isinstance(obj, dict) else None
            if isinstance(index, bool) or not isinstance(index, int):
                raise ValueError("needs integer 'frame_index'")
            if prev_index is not None and index <= prev_index:
                raise ValueError(f"frame_index {index} not greater than previous {prev_index}")
            raw_dets = obj.get("detections", [])
            if not isinstance(raw_dets, list):
                raise ValueError("detections must be a list")
            detections = []
            for k, d in enumerate(raw_dets):  # k is formatted only for a bad detection
                try:
                    detections.append(_parse_detection(d, index, names, positions))
                except ValueError as exc:
                    _raise_at(f"detection {k}", exc)
        except ValueError as exc:
            _raise_at(f"line {lineno}", exc)
        prev_index = index
        frames.append(Frame(frame_index=index, detections=detections))
    return DetectionStream(video_id=video_id, frames=frames, classes=names or ())


def _classes_head(classes: tuple[str, ...]) -> list[dict]:
    """A file's classes line, none when there are no classes."""
    return [{"classes": list(classes)}] if classes else []


def _detection_obj(det: Detection, classes: tuple[str, ...]) -> dict:
    obj = {"bbox": [det.bbox.x, det.bbox.y, det.bbox.w, det.bbox.h], "score": det.score}
    if det.class_scores is not None:
        if det.class_scores.names != classes:
            raise ValueError(f"class scores over {list(det.class_scores.names)} in a file of classes {list(classes)}")
        obj["class_scores"] = det.class_scores.row
    return obj


def write_detection_stream(stream: DetectionStream) -> str:
    """The stream's classes line, then a line per frame; every class_scores
    row is over stream.classes."""
    frames = (
        {"frame_index": frame.frame_index, "detections": [_detection_obj(d, stream.classes) for d in frame.detections]}
        for frame in stream.frames
    )
    return _write_json_lines(itertools.chain(_classes_head(stream.classes), frames))


# ---------------------------------------------------------------------------
# occurrence ledgers


@dataclass(frozen=True, kw_only=True)
class LedgerEntry:
    """One video's joint records: sets of names recorded together, none empty.

    Video-level mode makes one record of everyone identified, proximal mode
    one per proximal pair, in sorted order. Keyword-only: a set of names
    passed positionally would read as records of characters.
    """

    video_id: str
    records: tuple[frozenset[str], ...]

    def __post_init__(self):
        if not all(self.records):
            raise ValueError(f"video {self.video_id!r} has an empty joint record")

    @property
    def present(self) -> frozenset[str]:
        """The names in some record."""
        return frozenset().union(*self.records)

    @property
    def pairs(self) -> frozenset[tuple[str, str]]:
        """The sorted pairs of names that share a record."""
        return frozenset(pair for record in self.records for pair in itertools.combinations(sorted(record), 2))


@dataclass
class OccurrenceLedger:
    """One entry per video, no two with the same video_id."""

    entries: list[LedgerEntry]


def parse_occurrence_ledger(text: str | bytes, roster: Roster | None = None) -> OccurrenceLedger:
    """Parse a ledger CSV: header video_id,present; one video per row.

    The present cell holds comma-joined names (the csv layer quotes it).
    When a roster is given every name must belong to it.
    """
    entries = []
    seen = set()
    for lineno, (video_id, cell) in _csv_rows(text, "ledger", _LEDGER_HEADER):
        try:
            if video_id in seen:
                raise ValueError(f"duplicate video_id {video_id!r}")
            names = [_on_roster(p, roster) for p in cell.split(",") if p != ""]
        except ValueError as exc:
            _raise_at(f"ledger line {lineno}", exc)
        seen.add(video_id)
        entries.append(LedgerEntry(video_id=video_id, records=(frozenset(names),) if names else ()))
    return OccurrenceLedger(entries)


def write_ledger(ledger: OccurrenceLedger, roster: Roster | None = None) -> str:
    """Write a ledger CSV; names within a row follow roster order when a
    roster is given (it holds every name the ledger does), lexicographic
    order otherwise."""
    key = None if roster is None else roster.positions.__getitem__
    return _write_csv(
        _LEDGER_HEADER,
        ([entry.video_id, ",".join(sorted(entry.present, key=key))] for entry in ledger.entries),
    )


def parse_pair_ledger(text: str | bytes, roster: Roster | None = None) -> OccurrenceLedger:
    """Parse a pair ledger CSV: header video_id,pair; one joint record per row."""
    pairs_by_video: dict[str, set] = {}  # videos in order of first row
    for lineno, (video_id, cell) in _csv_rows(text, "pair ledger", _PAIR_LEDGER_HEADER):
        names = cell.split(",")
        try:
            if len(names) != 2 or not all(names) or names[0] == names[1]:
                raise ValueError("pair cell must join two distinct names")
            for name in names:
                _on_roster(name, roster)
        except ValueError as exc:
            _raise_at(f"pair ledger line {lineno}", exc)
        pairs_by_video.setdefault(video_id, set()).add(tuple(sorted(names)))
    entries = [
        LedgerEntry(video_id=video_id, records=tuple(map(frozenset, sorted(pairs))))
        for video_id, pairs in pairs_by_video.items()
    ]
    return OccurrenceLedger(entries)


def write_pair_ledger(ledger: OccurrenceLedger) -> str:
    """Write a pair ledger CSV: a row per sorted pair that shares a record."""
    return _write_csv(
        _PAIR_LEDGER_HEADER,
        ([entry.video_id, ",".join(pair)] for entry in ledger.entries for pair in sorted(entry.pairs)),
    )


# ---------------------------------------------------------------------------
# association matrices


@dataclass(eq=False)
class AssociationMatrix:
    """Symmetric matrix of dyadic association indices in [0, 1].

    names (at least one) fixes the row/column order; values is n rows of n
    floats with a zero diagonal, symmetric within 1e-12, never written after
    construction. The constructor copies any n x n sequence of numbers into
    those rows, a numpy array among them (tests and perfbench's oracle pass one).
    """

    names: list[str]
    values: list[list[float]]

    @classmethod
    def _proven(cls, names: list[str], rows: list[list[float]]) -> AssociationMatrix:
        """Names and rows already proven to keep every rule above, no -0.0 among them, stored unchecked."""
        m = cls.__new__(cls)
        m.names, m.values = names, rows
        return m

    def __post_init__(self):
        raw = self.values
        raw = raw.tolist() if hasattr(raw, "tolist") else raw  # an ndarray's rows as floats
        # + 0.0 turns each -0.0 into 0.0, whose reciprocal edge length is +inf
        self.values = rows = [[v + 0.0 for v in map(float, row)] for row in raw]
        n = len(self.names)
        if not n:
            raise ValueError("matrix needs at least one name")
        if len(set(self.names)) != n or any(not name for name in self.names):
            raise ValueError("matrix names must be unique and non-empty")
        widths = {len(row) for row in rows}
        if len(rows) != n or widths != {n}:
            shape = (len(rows), *widths) if len(widths) < 2 else f"({len(rows)}, ragged)"
            raise ValueError(f"matrix shape {shape} does not match {n} names")
        cells = list(itertools.chain.from_iterable(rows))
        if not all(map(math.isfinite, cells)):
            raise ValueError("matrix values must be finite")
        if min(cells) < 0.0 or max(cells) > 1.0:
            raise ValueError("matrix values must lie in [0, 1]")
        if any(row[i] for i, row in enumerate(rows)):
            raise ValueError("matrix diagonal must be exactly zero")
        # one list comparison passes an exactly symmetric matrix, as every writer makes
        columns = [list(col) for col in zip(*rows)]
        if columns != rows and any(
            abs(a - b) > SYMMETRY_TOLERANCE for row, col in zip(rows, columns) for a, b in zip(row, col)
        ):
            raise ValueError("matrix is not symmetric within 1e-12")

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def edges(self) -> list[list[tuple[int, float]]]:
        """Each vertex's (partner, weight) list over the positive entries of its
        row (the diagonal is exactly zero), partners in index order: the one
        graph view the network measures and the layout read."""
        return [[(j, w) for j, w in enumerate(row) if w > 0.0] for row in self.values]


def parse_association_matrix(text: str | bytes) -> AssociationMatrix:
    """Parse an association matrix CSV.

    First row: empty corner cell then the names; following rows: name then
    values in header order. Blank cells mean zero. Triangular input is
    permitted; mirror cells are merged by max, and two nonzero mirror cells
    that disagree by more than 1e-9 are an error. Rows may be shorter than
    the header (missing trailing cells are blank).
    """
    rows = [row for row in _csv_records(text, "matrix") if any(cell != "" for cell in row)]
    if not rows:
        raise ParseError("matrix: empty input")
    header = rows[0]
    names = list(header[1:])
    while names and names[-1] == "":
        names.pop()
    if not names:
        raise ParseError("matrix: header row has no names")
    if any(name == "" for name in names):
        raise ParseError("matrix: header contains an empty name")
    if len(set(names)) != len(names):
        raise ParseError("matrix: duplicate names in header")
    n = len(names)
    if len(rows) - 1 != n:
        raise ParseError(f"matrix: expected {n} data rows, got {len(rows) - 1}")

    raw = [[0.0] * n for _ in range(n)]
    for i, row in enumerate(rows[1:]):
        j = None  # the column of the cell being read; a fault of the row as a whole has none
        try:
            if row[0] != names[i]:
                raise ValueError(f"expected name {names[i]!r} (header order), got {row[0]!r}")
            if any(cell != "" for cell in row[n + 1 :]):
                raise ValueError("more cells than names")
            for j, cell in enumerate(row[1 : n + 1]):
                if not cell.strip(_BLANK):
                    continue
                v = _cell_number(cell, float)
                if not math.isfinite(v) or not 0.0 <= v <= 1.0:
                    raise ValueError(f"value {v} outside [0, 1]")
                if i == j and v != 0.0:
                    j = None
                    raise ValueError(f"nonzero diagonal value {v}")
                raw[i][j] = v + 0.0  # -0.0 becomes 0.0, whose reciprocal edge length is +inf
        except ValueError as exc:
            _raise_at(f"matrix row {i + 2}" + ("" if j is None else f", column {names[j]!r}"), exc)

    # merge each mirror pair by max, in row order, so the first clash named is the first in row order
    for i in range(n):
        upper = raw[i]
        for j in range(i + 1, n):
            a, b = upper[j], raw[j][i]
            if a > 0.0 and b > 0.0 and abs(a - b) > MIRROR_TOLERANCE:
                raise ParseError(f"matrix: mirror cells ({names[i]!r}, {names[j]!r}) conflict: {a} vs {b}")
            upper[j] = raw[j][i] = a if a >= b else b
    return AssociationMatrix._proven(names, raw)


def write_matrix(m: AssociationMatrix) -> str:
    """Write the full symmetric matrix; zeros become blank cells."""
    rows = ([name] + ["" if v == 0.0 else repr(v) for v in row] for name, row in zip(m.names, m.values))
    return _write_csv(["", *m.names], rows)


# ---------------------------------------------------------------------------
# tracks (JSON-lines, one track per line)


def write_tracks(tracks) -> str:
    """A classes line, from the first scored observation, then a line per
    track; every class_scores row is over the same classes."""
    classes = next((o.class_scores.names for t in tracks for o in t.observations if o.class_scores is not None), ())
    lines = (
        {
            "track_id": t.track_id,
            "video_id": t.video_id,
            "observations": [
                {"frame_index": o.frame_index, **_detection_obj(o, classes)} for o in t.observations
            ],
            "identity": None
            if t.identity is None
            else {"name": t.identity.name, "confidence": t.identity.confidence},
        }
        for t in tracks
    )
    return _write_json_lines(itertools.chain(_classes_head(classes), lines))


def parse_tracks(data: str | bytes, roster: Roster | None = None) -> list:
    """Parse a tracks file: a classes line as a detection stream has, then
    one track per line, whose observations are detections with a frame_index."""
    from .tracking import Identity, Track

    names, positions, records = _classes_line(_json_lines(data, "tracks "), roster, "tracks ")
    tracks = []
    for lineno, obj in records:
        try:
            obj = _object(obj, "track")
            observations = []
            for k, o in enumerate(_list(_key(obj, "observations", "track "), "observations")):
                try:
                    # the detection's own fields first, then its frame_index
                    det = _parse_detection(o, None, names, positions)
                    det.frame_index = o.get("frame_index")
                    if isinstance(det.frame_index, bool) or not isinstance(det.frame_index, int):
                        raise ValueError("needs integer frame_index")
                except ValueError as exc:
                    _raise_at(f"observation {k}", exc)
                observations.append(det)
            identity = None
            if obj.get("identity") is not None:
                ident = _object(obj["identity"], "identity")
                identity = Identity(
                    name=_str(_key(ident, "name", "identity "), "identity name"),
                    confidence=_num(_key(ident, "confidence", "identity ")),
                )
                Individual(identity.name)  # a roster name's rules: non-empty, no comma
                if not 0.0 <= identity.confidence <= 1.0:  # also rejects NaN
                    raise ValueError(f"identity confidence {identity.confidence} outside [0, 1]")
                _on_roster(identity.name, roster, " in identity")
            tracks.append(
                Track(
                    track_id=_int(_key(obj, "track_id", "track ")),
                    video_id=_str(_key(obj, "video_id", "track "), "video_id"),
                    observations=observations,
                    identity=identity,
                )
            )
        except ValueError as exc:
            _raise_at(f"tracks line {lineno}", exc)
    return tracks


# ---------------------------------------------------------------------------
# identification samples (JSON-lines, one sample per line)


def parse_id_samples(data: str | bytes, roster: Roster) -> list:
    """Parse identification samples: {"class_scores": {...}, "true_label": ...} per line.

    Samples keep the object form: class_scores must be a non-empty object
    of numbers in [0, 1] keyed by roster names; true_label
    must be a roster name with a score of its own. Blank lines are
    ignored; a file with no samples is an error.
    """
    from .evaluation import IdSample

    samples = []
    for lineno, rec in _json_lines(data, "samples "):
        try:
            if not isinstance(rec, dict) or "class_scores" not in rec or "true_label" not in rec:
                raise ValueError("needs 'class_scores' and 'true_label'")
            scores = _class_scores(rec["class_scores"], roster)
            label = _on_roster(_str(rec["true_label"], "true_label"), roster, " in true_label")
            samples.append(IdSample(class_scores=scores, true_label=label))
        except ValueError as exc:
            _raise_at(f"samples line {lineno}", exc)
    if not samples:
        raise ParseError("samples file contains no samples")
    return samples


# ---------------------------------------------------------------------------
# reports and generic JSON


def write_json(obj) -> str:
    """Deterministic, human-readable JSON document text."""
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def write_report(report) -> str:
    """Serialize a NetworkReport to JSON."""
    obj = {
        "density": report.density,
        "global_efficiency_binary": report.global_efficiency_binary,
        "global_efficiency_weighted": report.global_efficiency_weighted,
        "individuals": [
            {
                "name": ind.name,
                "degree": ind.degree,
                "strength": ind.strength,
                "eigenvector": ind.eigenvector,
            }
            for ind in report.individuals
        ],
        "warnings": list(report.warnings),
    }
    return write_json(obj)


def parse_report(data: str | bytes):
    from .network import IndividualMeasures, NetworkReport

    def individual(k: int, ind) -> IndividualMeasures:
        ind = _object(ind, f"individual {k}")
        try:
            return IndividualMeasures(
                name=_str(_key(ind, "name"), "name"),
                degree=_int(_key(ind, "degree"), "degree: "),
                strength=_num(_key(ind, "strength"), "strength: "),
                eigenvector=_num(_key(ind, "eigenvector"), "eigenvector: "),
            )
        except ValueError as exc:
            _raise_at(f"individual {k}", exc)

    obj = _loads(_text(data), "report")
    try:
        if not isinstance(obj, dict):
            raise ValueError("top level must be a JSON object")
        return NetworkReport(
            density=_num(_key(obj, "density"), "density: "),
            global_efficiency_binary=_num(_key(obj, "global_efficiency_binary"), "global_efficiency_binary: "),
            global_efficiency_weighted=_num(_key(obj, "global_efficiency_weighted"), "global_efficiency_weighted: "),
            individuals=[individual(k, ind) for k, ind in enumerate(_list(_key(obj, "individuals"), "individuals"))],
            warnings=[_str(wt, f"warning {k}") for k, wt in enumerate(_list(obj.get("warnings", []), "warnings"))],
        )
    except ValueError as exc:
        _raise_at("report", exc)


# ---------------------------------------------------------------------------
# atomic file output


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Write a file atomically: temp file in the same directory, then rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    except OSError as exc:  # name the file asked for, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
