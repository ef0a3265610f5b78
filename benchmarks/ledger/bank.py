"""The prerendered frame bank and its sequential oracle.

Rendering the synthetic road scene (blob drawing + ``add_noise``) costs
more than the tracker itself, so a bench that renders while timing
measures its own generator.  The driver therefore renders the seeded
scene *once* into a ``(frames, rows, cols)`` uint8 array, writes it next
to the expected outputs, and every child replays it through a
:class:`BankScene` whose ``render(k)`` is an array lookup.  The program
under test never sees the seed — only the frames made from it.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import random
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from repro import pipeline
from repro.backends.process_backend import default_start_method
from repro.syndex import ring
from repro.tracking.app import TrackingApp, build_tracking_app, default_scene
from repro.tracking.synthetic import Occlusion, TrackingScene
from repro.vision.image import Image

__all__ = ["FRAME_SIZE", "N_VEHICLES", "FARM_DEGREE", "OCCLUSION_EVERY",
           "BankScene", "seeded_scene", "render_bank", "save_bank",
           "load_bank", "as_bank_scene", "tracking_app", "oracle_outputs",
           "run_bank"]

FRAME_SIZE = 512
N_VEHICLES = 3
#: Farm degree of every workload (the ``nproc`` of the paper's spec).
FARM_DEGREE = 4
#: One mark vanishes for two frames this often, so tracking-phase and
#: reinitialisation-phase frames mix in every run.
OCCLUSION_EVERY = 40
OCCLUSION_FRAMES = 2


@dataclasses.dataclass
class BankScene(TrackingScene):
    """A scene whose frames were rendered ahead of time."""

    bank: Any = None

    def render(self, frame: int) -> Image:
        return Image(self.bank[frame])


def seeded_scene(seed: int, n_frames: int) -> TrackingScene:
    """The benchmark's road scene: three vehicles, periodic occlusions.

    ``seed`` drives the sensor noise and a small jitter of the initial
    vehicle poses; the occlusion schedule is fixed so every seed mixes
    the two tracker phases in the same proportion.
    """
    occlusions = tuple(
        Occlusion(vehicle_index=(start // OCCLUSION_EVERY) % N_VEHICLES,
                  mark_index=0, start=start,
                  end=start + OCCLUSION_FRAMES)
        for start in range(OCCLUSION_EVERY, n_frames, OCCLUSION_EVERY)
    )
    scene = default_scene(n_vehicles=N_VEHICLES, frame_size=FRAME_SIZE,
                          seed=seed, occlusions=occlusions)
    rng = random.Random(seed)
    scene.vehicles = [
        dataclasses.replace(v, x=v.x + rng.uniform(-0.15, 0.15),
                            z=v.z + rng.uniform(-0.5, 0.5))
        for v in scene.vehicles
    ]
    return scene


def render_bank(scene: TrackingScene, n_frames: int) -> np.ndarray:
    bank = np.empty((n_frames, scene.camera.nrows, scene.camera.ncols),
                    dtype=np.uint8)
    for k in range(n_frames):
        bank[k] = scene.render(k).pixels
    return bank


def save_bank(directory: str, bank: np.ndarray, scene: TrackingScene,
              expected: List) -> None:
    np.save(os.path.join(directory, "bank.npy"), bank)
    with open(os.path.join(directory, "oracle.pkl"), "wb") as handle:
        pickle.dump({"scene": scene, "expected": expected}, handle)


def load_bank(directory: str) -> Tuple[BankScene, List]:
    """The bank as a scene (frames memory-mapped) plus expected outputs.

    Only this benchmark writes ``oracle.pkl``, moments earlier, inside
    its own work directory.
    """
    bank = np.load(os.path.join(directory, "bank.npy"), mmap_mode="r")
    with open(os.path.join(directory, "oracle.pkl"), "rb") as handle:
        doc = pickle.load(handle)
    return as_bank_scene(doc["scene"], bank), doc["expected"]


def as_bank_scene(scene: TrackingScene, bank: Any) -> BankScene:
    fields = {f.name: getattr(scene, f.name)
              for f in dataclasses.fields(TrackingScene)}
    return BankScene(bank=bank, **fields)


def tracking_app(scene: BankScene, n_frames: int,
                 processors: int) -> Tuple[TrackingApp, Any]:
    """The §4 application on the bank, built for ``ring(processors)``."""
    app = build_tracking_app(nproc=FARM_DEGREE, n_frames=n_frames,
                             scene=scene)
    built = pipeline.build(app.source, app.table, ring(processors))
    return app, built


def oracle_outputs(scene: BankScene, n_frames: int) -> Tuple[List, float]:
    """Expected per-frame outputs by sequential emulation, and its rate.

    Returns ``(expected, frames_per_s)`` — the second is the
    single-thread baseline ``core.emulate_frames_per_s``.
    """
    app, built = tracking_app(scene, n_frames, 1)
    start = time.perf_counter()
    built.emulate()
    elapsed = time.perf_counter() - start
    return list(app.displayed), n_frames / elapsed


def run_bank(job: Dict) -> Dict:
    """Child job: render the seeded bank, emulate the oracle, save both."""
    frames = job["frames"]
    start = time.perf_counter()
    scene = seeded_scene(job["seed"], frames)
    pixels = render_bank(scene, frames)
    bank_s = time.perf_counter() - start
    expected, emulate_fps = oracle_outputs(
        as_bank_scene(scene, pixels), frames)
    save_bank(job["workdir"], pixels, scene, expected)
    return {"bank_s": bank_s, "emulate_frames_per_s": emulate_fps,
            "start_method": default_start_method()}
