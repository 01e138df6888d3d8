"""Output checks for the pipeline benchmark, recomputed apart from the program.

Nothing here imports beamcanyon. Each check rebuilds what an output should
be from the documented model (docs/format.md, the README) and compares:

- episodes file: every ray against an image of the RSU under its bounce
  sequence, its Friis gain, the ray order and the pair summaries, and the
  LOS flag against an independent slab test of the direct segment;
- CSVs: every occupancy grid against an independent rasterization, every
  label against a beam sweep made with this module's own steering vectors
  and an ``np.fft`` DFT codebook, the class-0 rule and the episode-wise
  split;
- classify report: a majority and kNN recomputation from the CSVs, with
  exact integer distances and stable tie-breaking;
- schedule report: each plan replayed on an independently built reward
  table, and ``dp`` against an independent optimum.

Every check returns a list of error strings; an empty list is a pass.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

SPEED_OF_LIGHT = 299792458.0
WAVELENGTH = SPEED_OF_LIGHT / 60e9
WALL_REFLECTION = -0.5
GROUND_REFLECTION = -0.6
# default canyon: walls (inner building faces) at y = 0 and y = 23, ground at z = 0
WALLS_Y = (0.0, 23.0)
GROUND_Z = 0.0
# the two building rows as solid boxes (xmin, ymin, zmin), (xmax, ymax, zmax)
BUILDINGS = (((0.0, -20.0, 0.0), (330.0, 0.0, 30.0)), ((0.0, 23.0, 0.0), (330.0, 43.0, 30.0)))
ARRAY_N = 4          # 4 x 4 uniform planar arrays at both ends, half-wavelength spacing
N_BEAMS = ARRAY_N * ARRAY_N
FIXED_COLUMNS = ("label", "los", "episode", "scene",
                 "dep_azimuth", "dep_elevation", "arr_azimuth", "arr_elevation")

REL_TOL = 1e-9       # lengths, gain magnitudes, delays, powers
ANGLE_TOL = 1e-9     # radians
PHASE_TOL = 1e-7     # relative distance of complex gains (phase ~1e5 rad)
REWARD_TOL = 1e-9
MAX_ERRORS = 50


# ---------------------------------------------------------------- episodes

def load_episodes(path: Path, expected: int) -> list[dict]:
    with open(path, "r", encoding="utf-8") as f:
        header = json.loads(f.readline())
        episodes = [json.loads(line) for line in f]
    if header.get("format") != "beamcanyon-episodes" or header.get("episode_count") != expected:
        raise ValueError(f"{path}: unexpected header {header}")
    if len(episodes) != expected or [e["episode_id"] for e in episodes] != list(range(expected)):
        raise ValueError(f"{path}: expected episodes 0..{expected - 1} in order")
    return episodes


def _mirror(point: np.ndarray, plane: tuple[int, float]) -> np.ndarray:
    out = point.copy()
    out[plane[0]] = 2.0 * plane[1] - out[plane[0]]
    return out


def _direction(vector: np.ndarray) -> tuple[float, float]:
    u = vector / np.linalg.norm(vector)
    return math.atan2(u[1], u[0]), math.acos(max(-1.0, min(1.0, float(u[2]))))


def _angle_close(a: float, b: float) -> bool:
    return abs(math.remainder(a - b, 2.0 * math.pi)) <= ANGLE_TOL


def plane_sequences(interactions: str) -> list[tuple[tuple[int, float], ...]]:
    """Every plane sequence a bounce-token string can name (no plane twice in a row)."""
    if interactions == "LOS":
        return [()]
    options = []
    for token in interactions.split("-"):
        if token == "R":
            options.append([(1, y) for y in WALLS_Y])
        elif token == "RG":
            options.append([(2, GROUND_Z)])
        else:
            return []
    return [
        seq for seq in itertools.product(*options)
        if all(a != b for a, b in zip(seq, seq[1:]))
    ]


def vehicle_boxes(vehicles: list[dict]) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned boxes around each (rotated) footprint, ground to roof."""
    lo, hi = [], []
    for v in vehicles:
        c, s = abs(math.cos(v["heading"])), abs(math.sin(v["heading"]))
        hx = c * v["length"] / 2 + s * v["width"] / 2
        hy = s * v["length"] / 2 + c * v["width"] / 2
        x, y = v["position"][0], v["position"][1]
        lo.append((x - hx, y - hy, GROUND_Z))
        hi.append((x + hx, y + hy, GROUND_Z + v["height"]))
    return np.array(lo, float).reshape(-1, 3), np.array(hi, float).reshape(-1, 3)


def segment_blocked(p0: np.ndarray, p1: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    """True iff the segment runs a positive length through the interior of any box."""
    if len(lo) == 0:
        return False
    t_in = np.zeros(len(lo))
    t_out = np.ones(len(lo))
    inside = np.ones(len(lo), dtype=bool)
    for axis in range(3):
        d = p1[axis] - p0[axis]
        if d == 0.0:
            inside &= (lo[:, axis] < p0[axis]) & (p0[axis] < hi[:, axis])
            continue
        a = (lo[:, axis] - p0[axis]) / d
        b = (hi[:, axis] - p0[axis]) / d
        t_in = np.maximum(t_in, np.minimum(a, b))
        t_out = np.minimum(t_out, np.maximum(a, b))
    return bool((inside & (t_out > t_in)).any())


def _check_ray(ray: dict, rsu: np.ndarray, rx: np.ndarray, used: set) -> str | None:
    """Match a ray to an unused image of the RSU; None when it matches."""
    length = ray["delay"] * SPEED_OF_LIGHT
    for seq in plane_sequences(ray["interactions"]):
        if seq in used:
            continue
        image = rsu
        for plane in seq:
            image = _mirror(image, plane)
        rx_image = rx
        for plane in reversed(seq):
            rx_image = _mirror(rx_image, plane)
        distance = float(np.linalg.norm(image - rx))
        if abs(length - distance) > REL_TOL * distance:
            continue
        arr = _direction(image - rx)
        dep = _direction(rx_image - rsu)
        if not (_angle_close(ray["arr_azimuth"], arr[0])
                and abs(ray["arr_elevation"] - arr[1]) <= ANGLE_TOL
                and _angle_close(ray["dep_azimuth"], dep[0])
                and abs(ray["dep_elevation"] - dep[1]) <= ANGLE_TOL):
            continue
        used.add(seq)
        walls = sum(1 for p in seq if p[0] == 1)
        grounds = len(seq) - walls
        magnitude = WAVELENGTH / (4 * math.pi * distance) * 0.5**walls * 0.6**grounds
        gain = complex(*ray["gain"])
        if abs(abs(gain) - magnitude) > REL_TOL * magnitude:
            return f"|gain| {abs(gain)!r} != {magnitude!r} for {ray['interactions']}"
        expected = (
            magnitude * np.exp(-2j * math.pi * distance / WAVELENGTH)
            * np.sign(WALL_REFLECTION) ** walls * np.sign(GROUND_REFLECTION) ** grounds
        )
        if abs(gain - expected) > PHASE_TOL * magnitude:
            return f"gain phase {gain!r} != {expected!r} for {ray['interactions']}"
        return None
    return f"ray {ray['interactions']} (delay {ray['delay']!r}) matches no image of the RSU"


def check_episodes(episodes: list[dict]) -> list[str]:
    errors: list[str] = []
    blo = np.array([b[0] for b in BUILDINGS])
    bhi = np.array([b[1] for b in BUILDINGS])
    for ep in episodes:
        rsu = np.array(ep["rsu_position"], float)
        for si, scene in enumerate(ep["scenes"]):
            where = f"episode {ep['episode_id']} scene {si}"
            vehicles = scene["vehicles"]
            lo, hi = vehicle_boxes(vehicles)
            receivers = {v["receiver_index"]: i for i, v in enumerate(vehicles)
                         if v["receiver_index"] is not None}
            if sorted(p["rx_id"] for p in scene["pairs"]) != sorted(receivers):
                errors.append(f"{where}: pairs do not cover the receivers")
                continue
            for pair in scene["pairs"]:
                errors += _check_pair(pair, rsu, vehicles, receivers, lo, hi, blo, bhi,
                                      ep["max_rays"], f"{where} rx {pair['rx_id']}")
            if len(errors) > MAX_ERRORS:
                return errors
    return errors


def _check_pair(pair, rsu, vehicles, receivers, lo, hi, blo, bhi, max_rays, where) -> list[str]:
    errors = []
    k = receivers[pair["rx_id"]]
    v = vehicles[k]
    rx = np.array([v["position"][0], v["position"][1], GROUND_Z + v["height"]], float)
    rays = pair["rays"]
    if len(rays) > max_rays:
        errors.append(f"{where}: {len(rays)} rays exceed max_rays {max_rays}")
    used: set = set()
    for ray in rays:
        error = _check_ray(ray, rsu, rx, used)
        if error:
            errors.append(f"{where}: {error}")
    keys = [(-abs(complex(*r["gain"])), r["delay"]) for r in rays]
    if keys != sorted(keys):
        errors.append(f"{where}: rays are not sorted strongest first")
    if rays:
        power = np.array([abs(complex(*r["gain"])) ** 2 for r in rays])
        delay = np.array([r["delay"] for r in rays])
        p_rx = pair["p_tx_dbm"] + 10 * math.log10(float(power.sum()))
        toa = float((power * delay).sum() / power.sum())
        if pair["p_rx_dbm"] is None or abs(pair["p_rx_dbm"] - p_rx) > 1e-9:
            errors.append(f"{where}: p_rx_dbm {pair['p_rx_dbm']!r} != {p_rx!r}")
        if pair["mean_toa"] is None or abs(pair["mean_toa"] - toa) > REL_TOL * toa:
            errors.append(f"{where}: mean_toa {pair['mean_toa']!r} != {toa!r}")
    elif pair["p_rx_dbm"] is not None or pair["mean_toa"] is not None:
        errors.append(f"{where}: a pair without rays has a received power or delay")
    others = np.arange(len(vehicles)) != k
    clear = not (segment_blocked(rsu, rx, lo[others], hi[others])
                 or segment_blocked(rsu, rx, blo, bhi))
    has_los = any(r["interactions"] == "LOS" for r in rays)
    if has_los != clear:
        errors.append(f"{where}: LOS ray {'present' if has_los else 'missing'} "
                      f"but the direct segment is {'clear' if clear else 'blocked'}")
    return errors


# ---------------------------------------------------------------- beam sweep

def beam_responses(azimuth: np.ndarray, elevation: np.ndarray) -> np.ndarray:
    """(rays, beams): w_b^H a(az, el) for every DFT beam b of a 4 x 4 half-wavelength UPA.

    The codebook is the Kronecker product of two unitary 4-point DFTs, so the
    projection onto all beams is a scaled 2-D inverse FFT of the steering array.
    """
    u = np.sin(elevation) * np.cos(azimuth)
    v = np.sin(elevation) * np.sin(azimuth)
    m = np.arange(ARRAY_N)
    phase = math.pi * (u[:, None, None] * m[None, :, None] + v[:, None, None] * m[None, None, :])
    steering = np.exp(1j * phase) / ARRAY_N
    return (np.fft.ifft2(steering) * ARRAY_N).reshape(len(u), N_BEAMS)


def sweep_powers(pairs: list[dict]) -> np.ndarray:
    """(pairs, tx beams * rx beams) |w_q^H H f_p|^2 at index p * 16 + q, for pairs with rays."""
    n_rays = [len(p["rays"]) for p in pairs]
    width = max(n_rays, default=0)
    rays = [r for p in pairs for r in p["rays"]]
    if not rays:
        return np.zeros((len(pairs), N_BEAMS * N_BEAMS))
    gain = np.array([complex(*r["gain"]) for r in rays])
    rx = beam_responses(np.array([r["arr_azimuth"] for r in rays]),
                        np.array([r["arr_elevation"] for r in rays]))
    tx = np.conj(beam_responses(np.array([r["dep_azimuth"] for r in rays]),
                                np.array([r["dep_elevation"] for r in rays])))
    row = np.repeat(np.arange(len(pairs)), n_rays)
    col = np.concatenate([np.arange(n) for n in n_rays])
    tx_pad = np.zeros((len(pairs), width, N_BEAMS), complex)
    rx_pad = np.zeros((len(pairs), width, N_BEAMS), complex)
    tx_pad[row, col] = gain[:, None] * tx * N_BEAMS   # sqrt(Nt * Nr) = 16
    rx_pad[row, col] = rx
    outputs = np.matmul(tx_pad.transpose(0, 2, 1), rx_pad)  # (pairs, tx beam, rx beam)
    return np.abs(outputs.reshape(len(pairs), -1)) ** 2


# ---------------------------------------------------------------- CSVs

def _splitmix64(state: int) -> int:
    z = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) & 0xFFFFFFFFFFFFFFFF


def expected_split(n_episodes: int, seed: int, test_fraction: float) -> tuple[list, list]:
    """The documented episode-wise split: a seeded permutation, the first round(f * n) to test."""
    split_seed = _splitmix64((seed & 0xFFFFFFFFFFFFFFFF) ^ 2)
    order = np.random.default_rng(split_seed).permutation(n_episodes)
    n_test = int(round(test_fraction * n_episodes))
    return sorted(int(i) for i in order[n_test:]), sorted(int(i) for i in order[:n_test])


def load_csv(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split(",")
        heads, tails = [], []
        for line in f:
            head, *tail = line.rstrip("\n").rsplit(",", len(FIXED_COLUMNS))
            heads.append(head)
            tails.append(tail)
    n_cells = len(header) - len(FIXED_COLUMNS)
    if tuple(header[n_cells:]) != FIXED_COLUMNS or header[:n_cells] != [f"g{i}" for i in range(n_cells)]:
        raise ValueError(f"{path}: unexpected header")
    cells = np.fromstring(",".join(heads), dtype=np.int64, sep=",") if heads else np.zeros(0, np.int64)
    if cells.size != n_cells * len(heads):
        raise ValueError(f"{path}: ragged grid rows")
    return {
        "grid": cells.reshape(len(heads), n_cells).astype(np.int8),
        "label": np.array([int(t[0]) for t in tails], dtype=np.int64),
        "los": [t[1] for t in tails],
        "episode": [int(t[2]) for t in tails],
        "scene": [int(t[3]) for t in tails],
        "angles": [tuple(float(a) for a in t[4:]) for t in tails],
    }


HEIGHT_CODES = {"car": -1, "truck": -2, "bus": -3}
MIN_OVERLAP_M2 = 0.01  # a 1 m cell is occupied once 1% of it is covered


def scene_grid(episode: dict, vehicles: list[dict]) -> np.ndarray:
    """1 m occupancy grid over the service strip: receiver index, else the tallest blocker code.

    Where footprints overlap, a receiver beats a blocker, the smaller receiver
    index beats a larger one, and a taller (more negative) blocker code beats
    a lower one.
    """
    x0, y0, x1, y1 = episode["v2i_area"]
    rows, cols = int(round(y1 - y0)), int(round(x1 - x0))
    grid = np.zeros((rows, cols), dtype=np.int16)
    lo, hi = vehicle_boxes(vehicles)
    for v, (bx0, by0, _), (bx1, by1, _) in zip(vehicles, lo, hi):
        r = np.arange(max(0, math.floor(by0 - y0)), min(rows - 1, math.floor(by1 - y0)) + 1)
        c = np.arange(max(0, math.floor(bx0 - x0)), min(cols - 1, math.floor(bx1 - x0)) + 1)
        if not len(r) or not len(c):
            continue
        dy = np.minimum(by1, y0 + r + 1) - np.maximum(by0, y0 + r)
        dx = np.minimum(bx1, x0 + c + 1) - np.maximum(bx0, x0 + c)
        covered = np.outer(dy, dx) >= MIN_OVERLAP_M2
        cells = grid[r[0]:r[-1] + 1, c[0]:c[-1] + 1]
        value = v["receiver_index"] if v["receiver_index"] is not None else HEIGHT_CODES[v["kind"]]
        if value > 0:
            wins = (cells <= 0) | (value < cells)
        else:
            wins = (cells <= 0) & (value < cells)
        cells[covered & wins] = value
    return grid


def receiver_view(grid: np.ndarray, rx: int) -> np.ndarray:
    """The target receiver as 1, every other receiver as -1; all zero when it is off the grid."""
    if not (grid == rx).any():
        return np.zeros_like(grid)
    return np.where(grid == rx, 1, np.where(grid > 0, -1, grid))


def check_csvs(out: Path, episodes: list[dict], seed: int, test_fraction: float) -> list[str]:
    errors: list[str] = []
    labelmap = json.loads((out / "labelmap.json").read_text())
    keys = sorted(int(k) for k in labelmap["raw_to_class"])
    if [labelmap["raw_to_class"][str(k)] for k in keys] != list(range(1, len(keys) + 1)) \
            or labelmap["num_classes"] != len(keys):
        errors.append("labelmap: classes are not 1..M over the sorted raw keys")
    train_ids, test_ids = expected_split(len(episodes), seed, test_fraction)
    tables = {side: load_csv(out / f"{side}.csv") for side in ("train", "test")}
    if set(tables["train"]["episode"]) & set(tables["test"]["episode"]):
        errors.append("split: an episode has rows in both train.csv and test.csv")
    known = np.zeros(N_BEAMS * N_BEAMS, dtype=bool)
    known[keys] = True
    for side, ids in (("train", train_ids), ("test", test_ids)):
        table = tables[side]
        pairs = [(ep, si, p) for ep in ids for si, scene in enumerate(episodes[ep]["scenes"])
                 for p in scene["pairs"] if p["rays"]]
        if [(ep, si) for ep, si, _ in pairs] != list(zip(table["episode"], table["scene"])):
            errors.append(f"{side}.csv: rows are not the pairs with rays of episodes {ids}")
            continue
        power = sweep_powers([p for _, _, p in pairs])
        near_max = power >= (1 - REL_TOL) * power.max(axis=1, keepdims=True)
        grids = {}
        for i, (ep, si, pair) in enumerate(pairs):
            where = f"{side}.csv row {i} (episode {ep} scene {si} rx {pair['rx_id']})"
            if (ep, si) not in grids:
                grids[ep, si] = scene_grid(episodes[ep], episodes[ep]["scenes"][si]["vehicles"])
            if not np.array_equal(table["grid"][i], receiver_view(grids[ep, si], pair["rx_id"]).ravel()):
                errors.append(f"{where}: the occupancy grid differs from the recomputation")
            label = int(table["label"][i])
            if label == 0:
                if side == "train":
                    errors.append(f"{where}: class 0 on the training side")
                elif not (near_max[i] & ~known).any():
                    errors.append(f"{where}: class 0 but the best beam pair was seen in training")
            elif not 1 <= label <= len(keys) or not near_max[i, keys[label - 1]]:
                errors.append(f"{where}: label {label} is not the strongest beam pair")
            los = "LOS" if any(r["interactions"] == "LOS" for r in pair["rays"]) else "NLOS"
            if table["los"][i] != los:
                errors.append(f"{where}: los {table['los'][i]} != {los}")
            first = pair["rays"][0]
            angles = (first["dep_azimuth"], first["dep_elevation"],
                      first["arr_azimuth"], first["arr_elevation"])
            if table["angles"][i] != angles:
                errors.append(f"{where}: target angles are not the strongest ray's")
            if len(errors) > MAX_ERRORS:
                return errors
        if side == "train" and set(table["label"].tolist()) != set(range(1, len(keys) + 1)):
            errors.append("train.csv: the label map holds classes no training row uses")
    return errors


# ---------------------------------------------------------------- classify report

def _predict_knn(x_train: np.ndarray, y_train: np.ndarray, x_test: np.ndarray, k: int) -> np.ndarray:
    """kNN with exact integer squared distances; equidistant neighbours go to the lower train row."""
    a = x_train.astype(np.float64)
    preds = np.empty(len(x_test), dtype=np.int64)
    norms_train = (x_train.astype(np.int64) ** 2).sum(axis=1)
    for start in range(0, len(x_test), 512):
        b = x_test[start:start + 512]
        # integer-valued float64 products and sums are exact below 2**53
        gram = b.astype(np.float64) @ a.T
        if not np.array_equal(gram, np.round(gram)) or np.abs(gram).max(initial=0) >= 2**53:
            raise ValueError("feature dot products are not exact integers")
        d2 = (b.astype(np.int64) ** 2).sum(axis=1)[:, None] + norms_train[None, :] \
            - 2 * gram.astype(np.int64)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        for i, row in enumerate(y_train[nearest]):
            preds[start + i] = int(np.argmax(np.bincount(row)))
    return preds


def _report(preds: np.ndarray, labels: np.ndarray, nlos: np.ndarray, num_classes: int) -> dict:
    top = int(max(num_classes, labels.max(), preds.max()))
    confusion = np.zeros((top + 1, top + 1), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    correct = preds == labels
    return {
        "accuracy_all": int(correct.sum()) / len(labels),
        "accuracy_nlos": int(correct[nlos].sum()) / int(nlos.sum()) if nlos.any() else None,
        "n_examples": len(labels),
        "confusion": confusion.tolist(),
    }


def expected_classify_report(out: Path, k: int) -> dict:
    train = load_csv(out / "train.csv")
    test = load_csv(out / "test.csv")
    y_train, y_test = train["label"], test["label"]
    nlos = np.array([los == "NLOS" for los in test["los"]])
    num_classes = int(y_train.max())
    k = min(k, len(y_train))
    majority = np.full(len(y_test), int(np.argmax(np.bincount(y_train))), dtype=np.int64)
    knn = _predict_knn(train["grid"], y_train, test["grid"], k)
    return {
        "majority": _report(majority, y_test, nlos, num_classes),
        f"knn(k={k})": _report(knn, y_test, nlos, num_classes),
    }


def check_classify(out: Path, k: int) -> list[str]:
    report = json.loads((out / "classify_report.json").read_text())
    expected = expected_classify_report(out, k)
    if sorted(report) != sorted(expected):
        return [f"classify_report.json: models {sorted(report)} != {sorted(expected)}"]
    errors = []
    for name, exp in expected.items():
        got = report[name]
        for field in ("n_examples", "confusion"):
            if got[field] != exp[field]:
                errors.append(f"classify_report.json: {name} {field} differs from the recomputation")
        for field in ("accuracy_all", "accuracy_nlos"):
            a, b = got[field], exp[field]
            if (a is None) != (b is None) or (a is not None and abs(a - b) > 1e-12):
                errors.append(f"classify_report.json: {name} {field} {a!r} != {b!r}")
    return errors


# ---------------------------------------------------------------- schedule report

def reward_table(episode: dict, n_rec: int, floor_db: float = 200.0) -> np.ndarray:
    """(scenes, receivers, beam pairs) rewards: per-scene dB sweep powers mapped onto [0, 1]."""
    scenes = episode["scenes"]
    raw = np.full((len(scenes), n_rec, N_BEAMS * N_BEAMS), -np.inf)
    slots = [(s, p["rx_id"] - 1, p) for s, scene in enumerate(scenes) for p in scene["pairs"]
             if p["rx_id"] <= n_rec and p["rays"]]
    if slots:
        power = sweep_powers([p for _, _, p in slots])
        with np.errstate(divide="ignore"):
            db = 10 * np.log10(power)
        for (s, r, _), row in zip(slots, db):
            raw[s, r] = row
    table = np.zeros_like(raw)
    for s in range(len(scenes)):
        z = raw[s]
        finite = np.isfinite(z)
        if not finite.any():
            raise ValueError(f"episode {episode['episode_id']} scene {s}: no scheduled receiver has a path")
        top = z[finite].max()
        bottom = max(z.min(), top - floor_db)
        if bottom == top:
            bottom = top - floor_db
        table[s] = np.clip((z - bottom) / (top - bottom), 0.0, 1.0)
    return table


def replay(table: np.ndarray, receivers: list, pairs: list, n_out: int, r_out: float) -> float:
    """Mean reward of a plan: serving a receiver zeroes its starvation count, the others
    grow (capped at n_out); a scene where any count reaches n_out pays r_out instead."""
    starve = [0] * table.shape[1]
    total = 0.0
    for s, (r, p) in enumerate(zip(receivers, pairs)):
        starve = [0 if i == r else min(c + 1, n_out) for i, c in enumerate(starve)]
        total += r_out if max(starve) >= n_out else float(table[s, r, p])
    return total / table.shape[0]


def optimum(table: np.ndarray, n_out: int, r_out: float) -> float:
    """Best mean reward over all receiver sequences (each served with its best beam pair)."""
    best = table.max(axis=2)
    n_scenes, n_rec = best.shape
    if n_scenes <= 10 and n_rec == 2:
        seqs = np.array(list(itertools.product(range(n_rec), repeat=n_scenes)))
        starve = np.zeros((len(seqs), n_rec), dtype=np.int64)
        total = np.zeros(len(seqs))
        rows = np.arange(len(seqs))
        for s in range(n_scenes):
            a = seqs[:, s]
            starve = np.minimum(starve + 1, n_out)
            starve[rows, a] = 0
            total += np.where(starve.max(axis=1) >= n_out, r_out, best[s, a])
        return float(total.max()) / n_scenes
    values = {(0,) * n_rec: 0.0}  # forward DP over capped starvation vectors
    for s in range(n_scenes):
        nxt: dict = {}
        for state, value in values.items():
            for a in range(n_rec):
                new = tuple(0 if i == a else min(c + 1, n_out) for i, c in enumerate(state))
                v = value + (r_out if max(new) >= n_out else best[s, a])
                if v > nxt.get(new, -math.inf):
                    nxt[new] = v
        values = nxt
    return max(values.values()) / n_scenes


def check_schedule(out: Path, episodes: list[dict], n_rec: int, n_out: int, r_out: float,
                   agents: list[str]) -> list[str]:
    report = json.loads((out / "schedule_report.json").read_text())
    errors = []
    rows = (out / "rewards.csv").read_text().splitlines()
    if rows[0].split(",") != ["episode"] + agents or len(rows) != len(report["episodes"]) + 1:
        errors.append("rewards.csv: header or row count differs from the report")
    if [e["episode_id"] for e in report["episodes"]] != [e["episode_id"] for e in episodes]:
        return errors + ["schedule_report.json: episodes differ from the episodes file"]
    for row, entry, episode in zip(rows[1:], report["episodes"], episodes):
        where = f"schedule_report.json episode {entry['episode_id']}"
        if sorted(entry["agents"]) != sorted(agents):
            errors.append(f"{where}: agents {sorted(entry['agents'])}")
            continue
        if [float(x) for x in row.split(",")[1:]] != [entry["agents"][a]["mean_reward"] for a in agents]:
            errors.append(f"rewards.csv: episode {entry['episode_id']} differs from the report")
        table = reward_table(episode, n_rec)
        for name, plan in entry["agents"].items():
            if len(plan["receivers"]) != table.shape[0] or len(plan["pair_indices"]) != table.shape[0]:
                errors.append(f"{where}: {name} plan length != {table.shape[0]} scenes")
                continue
            value = replay(table, plan["receivers"], plan["pair_indices"], n_out, r_out)
            if abs(value - plan["mean_reward"]) > REWARD_TOL:
                errors.append(f"{where}: {name} mean_reward {plan['mean_reward']!r} != replay {value!r}")
        best = optimum(table, n_out, r_out)
        if abs(entry["agents"]["dp"]["mean_reward"] - best) > REWARD_TOL:
            errors.append(f"{where}: dp {entry['agents']['dp']['mean_reward']!r} != optimum {best!r}")
        for name, plan in entry["agents"].items():
            if plan["mean_reward"] > best + REWARD_TOL:
                errors.append(f"{where}: {name} beats the optimum")
        if len(errors) > MAX_ERRORS:
            break
    return errors
