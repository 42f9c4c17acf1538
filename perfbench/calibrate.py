"""Fixed reference work that gauges the host's speed at the moment.

    python3 perfbench/calibrate.py

The benchmark's untraced loop runs this script in a fresh process before
the first command and after every command, and times it from outside.
Its work is fixed and uses only the standard library and numpy, never
troopnet, so a change to the program cannot move it. It is the program's
kind of work (interpreter and numpy start-up, JSON lines parsing,
dictionaries, small numpy arrays) done at a constant size. On a shared
host the speed of a virtual CPU moves by half and more over stretches of
seconds to minutes; scaling each command's wall time by the time of the
probes around it takes that out of the timing metrics (see run.py).
"""

import json

import numpy as np

FRAMES = 900
FACES = 6
NAMES = [f"id{k:02d}" for k in range(12)]


def main() -> float:
    lines = []
    for f in range(FRAMES):
        dets = [
            {
                "bbox": [float(160 * k + f % 7), float(160 * (f % 5)), 64.0, 64.0],
                "score": 0.5 + (f * k % 50) / 100.0,
                "class_scores": {n: ((f + 3 * k + j) % 97) / 97.0 for j, n in enumerate(NAMES)},
            }
            for k in range(FACES)
        ]
        lines.append(json.dumps({"frame_index": f, "detections": dets}))
    text = "\n".join(lines)
    tracks: dict[str, list] = {}
    for line in text.split("\n"):
        frame = json.loads(line)
        for det in frame["detections"]:
            scores = det["class_scores"]
            best = max(scores, key=scores.get)
            tracks.setdefault(best, []).append((frame["frame_index"], *det["bbox"], scores[best]))
    total = 0.0
    for rows in tracks.values():
        a = np.array(rows)
        for _ in range(8):
            a = a[np.argsort(a[:, -1], kind="stable")]
            total += float(np.sqrt(a[:, 1:3] ** 2).sum())
    return total


if __name__ == "__main__":
    print(main())
