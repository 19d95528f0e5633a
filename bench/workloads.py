"""The benchmark's workloads: reduced preset variants run through the public
Monte-Carlo drivers of ``disptrack.experiments``.

A campaign is a fixed list of units. A unit is one driver call (or one call
of each driver the workload uses) on its own base seed, and the base seeds
come from the workload seed alone, so a campaign repeated with the same seed
must give bit-identical estimates. Each unit is timed on its own: a run's
cost depends on its random draw and has a heavy right tail (some six-targets
runs take twice the median), so the benchmark reports the median unit rate,
which stays steady from seed to seed where the campaign total does not.
Units run serially; the process pool is exercised only by the single-object
pool check (see NOTES.md for why it is not timed end to end).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from disptrack import experiments as ex
from disptrack import metrics, sim
from disptrack.rng import run_seeds


@dataclass
class Outcome:
    """What one campaign produced, reduced to what the benchmark reports."""

    unit_sets: list[int]  # observation sets filtered by the runs that succeeded
    unit_walls: list[float]
    runs: int  # Monte-Carlo runs attempted
    failed_runs: int
    accuracy: dict[str, float]
    digest: str  # hash of every estimate, for the bit-identity checks
    records: list = field(repr=False)  # per-run records, for their pickled size


def unit_base_seeds(seed: int, p: dict) -> list[int]:
    return run_seeds(seed, p["units"])


def _sets_per_run(cfg: sim.ScenarioConfig) -> int:
    return cfg.n_steps * (2 if cfg.sync == "synchronous" else 1)


def estimates_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def load_presets(package_dir: Path) -> dict[str, sim.ScenarioConfig]:
    presets = package_dir / "presets"
    return {p.stem: sim.load_config(p) for p in sorted(presets.glob("*.json"))}


class PhdClutter:
    """six-targets through run_phd, one run per unit: the mixture sits at
    the 200-component cap from the third step, so prune_merge and the
    per-pair update dominate."""

    name = "phd-clutter"
    full = {"n_steps": 4, "units": 8, "burn_in": 2}
    tiny = {"n_steps": 2, "units": 1, "burn_in": 1}

    def configs(self, presets, p):
        return {"six-targets": replace(presets["six-targets"], n_steps=p["n_steps"])}

    def campaign(self, cfgs, p, seed) -> Outcome:
        cfg = cfgs["six-targets"]
        burn_in = p["burn_in"]
        results, walls = zip(
            *(
                _timed(ex.run_phd, cfg, 1, base, burn_in=burn_in, parallel=False)
                for base in unit_base_seeds(seed, p)
            )
        )
        runs = [run for r in results for run in r.runs]
        return Outcome(
            unit_sets=[len(r.runs) * _sets_per_run(cfg) for r in results],
            unit_walls=list(walls),
            runs=p["units"],
            failed_runs=sum(len(r.failures) for r in results),
            accuracy={
                "ospa_cm": float(np.mean([run.ospa[burn_in:].mean() for run in runs])),
                "card_acc": float(np.mean([r.cardinality_accuracy_after_burn_in for r in results])),
            },
            digest=estimates_digest(
                *[run.ospa for run in runs],
                *[run.cardinality for run in runs],
                *[rec.targets_world for run in runs for rec in run.records],
            ),
            records=runs,
        )


class Calibrate:
    """six-targets through run_calibrate, one run per unit: many small
    mixtures (cap 50), one per sensor particle, plus the likelihood
    denominators and resampling."""

    name = "calibrate"
    full = {"n_steps": 2, "particles": 10, "units": 32}
    tiny = {"n_steps": 1, "particles": 2, "units": 1}

    def configs(self, presets, p):
        base = presets["six-targets"]
        cal = replace(base.calibration, particles=p["particles"])
        return {"six-targets": replace(base, n_steps=p["n_steps"], calibration=cal)}

    def campaign(self, cfgs, p, seed) -> Outcome:
        cfg = cfgs["six-targets"]
        results, walls = zip(
            *(
                _timed(ex.run_calibrate, cfg, 1, base, parallel=False)
                for base in unit_base_seeds(seed, p)
            )
        )
        runs = [run for r in results for run in r.runs]
        final = np.array([run.estimates[-1] - run.truth for run in runs])
        return Outcome(
            unit_sets=[len(r.runs) * _sets_per_run(cfg) for r in results],
            unit_walls=list(walls),
            runs=p["units"],
            failed_runs=sum(len(r.failures) for r in results),
            accuracy={
                "calib_pos_err_cm": float(np.linalg.norm(final[:, :3], axis=1).mean()),
                "calib_rot_err_mrad": float(1e3 * np.linalg.norm(final[:, 3:], axis=1).mean()),
            },
            digest=estimates_digest(*[run.estimates for run in runs], *[run.stds for run in runs]),
            records=runs,
        )


class SingleObject:
    """grid-localisation through run_localise with the PF baseline and
    receding-target through run_track, serial; a unit is one call of each.
    No mixture code runs; the receding target's track loss shows as failed
    runs."""

    name = "single-object"
    full = {"units": 8, "loc_runs": 16, "track_runs": 32, "pool_runs": 24, "track_steps": None}
    tiny = {"units": 1, "loc_runs": 1, "track_runs": 2, "pool_runs": 2, "track_steps": 20}

    def configs(self, presets, p):
        track = presets["receding-target"]
        if p["track_steps"] is not None:
            track = replace(track, n_steps=p["track_steps"])
        return {"grid-localisation": presets["grid-localisation"], "receding-target": track}

    def campaign(self, cfgs, p, seed) -> Outcome:
        loc_cfg, trk_cfg = cfgs["grid-localisation"], cfgs["receding-target"]
        unit_sets, unit_walls, locs, trks = [], [], [], []
        for base in unit_base_seeds(seed, p):
            loc, loc_wall = _timed(
                ex.run_localise, loc_cfg, p["loc_runs"], base, baseline="pf", parallel=False
            )
            trk, trk_wall = _timed(ex.run_track, trk_cfg, p["track_runs"], base, parallel=False)
            loc_ok = p["loc_runs"] * len(loc.cells) - len(loc.failures)
            unit_sets.append(
                loc_ok * _sets_per_run(loc_cfg) + len(trk.runs) * _sets_per_run(trk_cfg)
            )
            unit_walls.append(loc_wall + trk_wall)
            locs.append(loc)
            trks.append(trk)
        track_runs = [run for trk in trks for run in trk.runs]
        return Outcome(
            unit_sets=unit_sets,
            unit_walls=unit_walls,
            runs=p["units"] * (p["loc_runs"] * len(locs[0].cells) + p["track_runs"]),
            failed_runs=sum(len(r.failures) for r in (*locs, *trks)),
            accuracy={
                # pooled over every successful run: a unit may lose all its tracks
                "rmse_cm": float(
                    np.mean([metrics.per_run_rmse(r.ds_estimates, r.truth) for r in track_runs])
                ),
                "loc_rmse_cm": float(np.mean([c.ds_rmse_mean for loc in locs for c in loc.cells])),
            },
            digest=estimates_digest(
                [(c.ds_rmse_mean, c.baseline_rmse_mean) for loc in locs for c in loc.cells],
                *_track_estimates(track_runs),
            ),
            records=track_runs,
        )

    def pool_campaign(self, cfgs, p, seed, parallel: bool):
        """Failures and estimate hash of the receding-target campaign that the
        pool check runs both serial and pooled."""
        trk = ex.run_track(cfgs["receding-target"], p["pool_runs"], seed, parallel=parallel)
        return trk.failures, estimates_digest(*_track_estimates(trk.runs))


def _track_estimates(track_runs) -> list[np.ndarray]:
    out = []
    for run in track_runs:
        out.append(run.ds_estimates)
        out.extend(run.pf_estimates[n] for n in sorted(run.pf_estimates))
    return out


WORKLOADS = {w.name: w for w in (PhdClutter(), Calibrate(), SingleObject())}
