"""The benchmark's three workloads.

Each workload builds its inputs from the benchmark seed in ``setup``,
runs one timed *unit* per ``unit()`` call, and checks outputs outside
the timed section.  Only public ``repro`` functions are called.

Operations counted for ``error_rate``: fault draws (``mc_eval_r20``),
training steps (``ft_train_r8``) and pipeline cells
(``pipeline_cell_w2``).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import shutil
from time import perf_counter as _now
from typing import Any, Dict, List, Optional

import numpy as np

from repro import nn, telemetry
from repro.core import FaultDrawSpec, evaluate_one_draw
from repro.core import evaluate as evaluate_module
from repro.datasets import DataLoader, make_synthetic_pair
from repro.experiments import get_scale
from repro.experiments import runner
from repro.models import build_model
from repro.seeding import draw_streams
from repro.telemetry import cli as telemetry_cli

import sysinfo
from stats import Outcomes

#: The benchmark's default seed; reference outputs are stored for it.
DEFAULT_SEED = 0


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def state_digest(model: nn.Module) -> str:
    """SHA-256 over every parameter and buffer, in state-dict order."""
    digest = hashlib.sha256()
    for name, value in model.state_dict().items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def retained_bytes(model) -> int:
    """Bytes of ndarrays a module tree still holds outside its parameters.

    Counts array attributes (and arrays inside tuple/list attributes) of
    every module — the activation caches a forward leaves behind — but
    not registered buffers.  Views are charged to their base array once.
    """
    seen = set()
    total = 0
    for module in model.modules():
        buffers = {id(value) for value in module._buffers.values()}
        for value in vars(module).values():
            items = value if isinstance(value, (tuple, list)) else (value,)
            for item in items:
                if not isinstance(item, np.ndarray) or id(item) in buffers:
                    continue
                root = item
                while isinstance(root.base, np.ndarray):
                    root = root.base
                if id(root) not in seen:
                    seen.add(id(root))
                    total += root.nbytes
    return total


class Workload:
    """Interface of one workload; see the module docstring."""

    name = ""
    #: Output of the first successful unit; later units must repeat it.
    first: Any = None
    #: Most untraced units in one run; ``None`` lets ``--seconds`` decide.
    max_units: Optional[int] = None

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.out_dir = out_dir

    def install_probes(self) -> None:
        """Light observers needed by the output checks (kept for the run)."""

    def setup(self) -> None:
        raise NotImplementedError

    def before_units(self) -> None:
        """Check-side state captured after set-up, outside any timing."""

    def unit(self) -> Dict[str, Any]:
        raise NotImplementedError

    def check_unit(self, index: int, info: Optional[dict], outcomes: Outcomes) -> None:
        raise NotImplementedError

    def final_checks(
        self, units: List[Optional[dict]], outcomes: Outcomes, reference: Optional[dict]
    ) -> dict:
        """Run-level checks; returns the outputs compared against reference."""
        raise NotImplementedError

    def retained_probe(self) -> int:
        """Bytes modules retain after one eval forward (``nn.retained_mb``)."""
        raise NotImplementedError

    def unit_ops(self, index: int) -> List[str]:
        raise NotImplementedError

    @staticmethod
    def _retained_after_eval(model: nn.Module, images: np.ndarray) -> int:
        was_training = model.training
        model.eval()
        model(images)
        model.train(was_training)
        return retained_bytes(model)


class McEvalR20(Workload):
    """Paper testing protocol: seeded fault draws on ResNet-20 at 32×32."""

    name = "mc_eval_r20"
    P_SA = 0.01
    BATCH = 128
    DRAWS = 2

    def setup(self) -> None:
        _, test_set = make_synthetic_pair(
            num_classes=10,
            image_size=32,
            train_size=0,
            test_size=self.BATCH,
            seed=self.seed,
        )
        self.loader = DataLoader(test_set, self.BATCH, shuffle=False)
        self.model = build_model(
            "resnet20",
            rng=np.random.default_rng(self.seed),
            num_classes=10,
            base_width=16,
            in_channels=3,
        )

    def before_units(self) -> None:
        self.digest_before = state_digest(self.model)

    def unit(self) -> Dict[str, Any]:
        evaluation = evaluate_module.evaluate_defect_accuracy(
            self.model,
            self.loader,
            self.P_SA,
            num_runs=self.DRAWS,
            seed=self.seed,
            workers=0,
        )
        return {
            "draws": self.DRAWS,
            "samples": self.DRAWS * self.BATCH,
            "accuracies": list(evaluation.run_accuracies),
        }

    def unit_ops(self, index: int) -> List[str]:
        return [f"unit{index}/draw{d}" for d in range(self.DRAWS)]

    def check_unit(self, index, info, outcomes) -> None:
        ops = self.unit_ops(index)
        for op in ops:
            outcomes.attempt(op)
        if info is None:
            return
        accuracies = info["accuracies"]
        if len(accuracies) != self.DRAWS:
            outcomes.fail_all(ops, "wrong number of draws")
            return
        if self.first is None:
            self.first = accuracies
        for op, accuracy, first in zip(ops, accuracies, self.first):
            if not 0.0 <= accuracy <= 100.0:
                outcomes.fail(op, "accuracy out of range")
            elif accuracy != first:
                outcomes.fail(op, "same seed gave a different draw")

    def final_checks(self, units, outcomes, reference) -> dict:
        all_ops = [op for i in range(len(units)) for op in self.unit_ops(i)]
        if state_digest(self.model) != self.digest_before:
            outcomes.fail_all(all_ops, "weights not restored after the draws")
        images = next(iter(self.loader))[0]
        self.model.eval()
        logits = self.model(images)
        self.images = images
        if not np.all(np.isfinite(logits)):
            outcomes.fail_all(all_ops, "clean logits not finite")
        observed = {
            "clean_logits_head": logits[:2].round(12).tolist(),
            "clean_logits_abs_sum": float(np.abs(logits).sum()),
            "draw_accuracies": self.first or [],
        }
        if reference is not None:
            head = np.asarray(reference["clean_logits_head"])
            if not np.allclose(logits[:2], head, rtol=1e-7, atol=1e-9) or not _close(
                observed["clean_logits_abs_sum"],
                reference["clean_logits_abs_sum"],
                rel=1e-7,
            ):
                outcomes.fail_all(all_ops, "clean logits differ from reference")
            # One image of 128 may flip on a summation-order change.
            tolerance = 100.0 / self.BATCH + 1e-9
            for i in range(len(units)):
                for op, got, want in zip(
                    self.unit_ops(i),
                    units[i]["accuracies"] if units[i] else [],
                    reference["draw_accuracies"],
                ):
                    if abs(got - want) > tolerance:
                        outcomes.fail(op, "draw accuracy differs from reference")
        return observed

    def retained_probe(self) -> int:
        return self._retained_after_eval(self.model, self.images)


class FtTrainR8(Workload):
    """One-shot stochastic fault-tolerant training at the ``bench`` shapes."""

    name = "ft_train_r8"
    P_SA_TRAIN = 0.05
    EPOCHS = 2

    def install_probes(self) -> None:
        # Losses are read for the finiteness check; the trainer keeps no
        # history of them outside telemetry, which this workload leaves off.
        self.losses: List[float] = []
        original = nn.CrossEntropyLoss.__call__

        @functools.wraps(original)
        def recorded(loss_fn, logits, labels):
            loss, grad = original(loss_fn, logits, labels)
            self.losses.append(loss)
            return loss, grad

        nn.CrossEntropyLoss.__call__ = recorded

    def setup(self) -> None:
        self.scale = get_scale("bench").with_overrides(
            seed=self.seed, ft_epochs=self.EPOCHS
        )
        train_loader, test_loader = runner.make_loaders(self.scale, 10)
        self.train_set = train_loader.dataset
        self.test_images = next(iter(test_loader))[0][: self.scale.batch_size]
        self.model = runner.build_backbone(
            self.scale, 10, np.random.default_rng(self.seed + 10)
        )
        self.steps_per_unit = self.EPOCHS * math.ceil(
            len(self.train_set) / self.scale.batch_size
        )

    def before_units(self) -> None:
        self.digest_before = state_digest(self.model)

    def unit(self) -> Dict[str, Any]:
        self.losses.clear()
        # A fresh loader per unit: every unit trains on the same batch order.
        loader = DataLoader(
            self.train_set, self.scale.batch_size, shuffle=True, seed=self.seed + 1
        )
        self.trained = runner.train_fault_tolerant(
            self.model, "one_shot", self.P_SA_TRAIN, self.scale, loader
        )
        return {
            "draws": len(self.losses),
            "samples": self.EPOCHS * len(self.train_set),
            "losses": list(self.losses),
        }

    def unit_ops(self, index: int) -> List[str]:
        return [f"unit{index}/step{s}" for s in range(self.steps_per_unit)]

    def check_unit(self, index, info, outcomes) -> None:
        ops = self.unit_ops(index)
        for op in ops:
            outcomes.attempt(op)
        if info is None:
            return
        losses = info["losses"]
        if len(losses) != len(ops):
            outcomes.fail_all(ops, "wrong number of training steps")
            return
        for op, loss in zip(ops, losses):
            if not math.isfinite(loss):
                outcomes.fail(op, "training loss not finite")
        if self.first is None:
            self.first = losses
        elif losses != self.first:
            outcomes.fail_all(ops, "same seed gave a different training run")

    def final_checks(self, units, outcomes, reference) -> dict:
        all_ops = [op for i in range(len(units)) for op in self.unit_ops(i)]
        if state_digest(self.model) != self.digest_before:
            outcomes.fail_all(all_ops, "training modified the input model")
        first = self.first or [float("nan")]
        observed = {"first_loss": first[0], "final_loss": first[-1]}
        if reference is not None:
            # Training amplifies summation-order changes; 1e-6 still catches
            # any wrong kernel, which moves the loss in the first digits.
            if not (
                _close(first[0], reference["first_loss"], rel=1e-9)
                and _close(first[-1], reference["final_loss"], rel=1e-6)
            ):
                outcomes.fail_all(all_ops, "training loss differs from reference")
        return observed

    def retained_probe(self) -> int:
        return self._retained_after_eval(self.trained, self.test_images)


class PipelineCellW2(Workload):
    """One ``run_pipeline_cell`` at the ``bench`` preset, pooled, with telemetry."""

    name = "pipeline_cell_w2"
    # One cell per process is the time-to-artifact a sweep user pays, and a
    # fixed count keeps runs comparable whatever the host's speed.
    max_units = 1
    P_SA = 0.01
    P_SA_TRAIN = 0.05
    DRAWS = 100
    WORKERS = 2
    # Trimmed from the preset's 10 + 20 epochs so one cell fits a run.
    PRETRAIN_EPOCHS = 2
    FT_EPOCHS = 4
    SAMPLED_DRAWS = 2

    def install_probes(self) -> None:
        # The serial re-check needs the model and loader the cell scored,
        # and draws_per_s / samples_per_s need the two stage times.  Both
        # probes call through, so the cell computes exactly what it would.
        self.stage: Dict[str, Any] = {}
        stage = self.stage

        # Workers × BLAS threads must not exceed the cores.  OpenBLAS starts
        # one thread per core in every process, so uncapped, the two
        # workers ran 4 threads on 2 cores: a cell took about 1.8 times as
        # long and runs spread past the bounds.  Workers fork inside
        # the call and inherit the cap; the serial stages keep the
        # threads as found, as the serial workloads do.
        cap = max(1, len(os.sched_getaffinity(0)) // self.WORKERS)

        @functools.wraps(runner.evaluate_defect_accuracy)
        def defect_eval(model, loader, p_sa, **kwargs):
            stage["eval_args"] = (model, loader, p_sa, kwargs)
            with sysinfo.blas_threads(cap):
                started = _now()
                result = evaluate_module.evaluate_defect_accuracy(
                    model, loader, p_sa, **kwargs
                )
                stage["eval_s"] = _now() - started
            return result

        original_ft = runner.train_fault_tolerant

        @functools.wraps(original_ft)
        def ft_train(*args, **kwargs):
            started = _now()
            result = original_ft(*args, **kwargs)
            stage["ft_s"] = _now() - started
            return result

        runner.evaluate_defect_accuracy = defect_eval
        runner.train_fault_tolerant = ft_train

    def setup(self) -> None:
        self.scale = get_scale("bench").with_overrides(
            seed=self.seed,
            pretrain_epochs=self.PRETRAIN_EPOCHS,
            ft_epochs=self.FT_EPOCHS,
            defect_runs=self.DRAWS,
            workers=self.WORKERS,
        )
        self.telemetry_dir = os.path.join(self.out_dir, f"telemetry-{os.getpid()}")
        self.config = {
            "experiment": "pipeline_cell",
            "scale": self.scale.name,
            "seed": self.scale.seed,
            "workers": self.scale.workers,
            "forensics": False,
        }

    def unit(self) -> Dict[str, Any]:
        self.stage.clear()
        # Set up as the experiments CLI's --telemetry-dir does.
        with telemetry.session(
            self.telemetry_dir, config=self.config, resources=True, profile=False
        ) as run:
            result = runner.run_pipeline_cell(
                self.scale,
                "one_shot",
                self.P_SA,
                p_sa_train=self.P_SA_TRAIN,
                sparsity=0.5,
                quant_bits=4,
            )
        return {
            "draws": self.DRAWS,
            "samples": self.FT_EPOCHS * self.scale.train_size,
            "draws_s": self.stage["eval_s"],
            "samples_s": self.stage["ft_s"],
            "result": result,
            "run_dir": run.directory,
            "eval_args": self.stage["eval_args"],
        }

    def unit_ops(self, index: int) -> List[str]:
        return [f"cell{index}"]

    def check_unit(self, index, info, outcomes) -> None:
        (op,) = self.unit_ops(index)
        outcomes.attempt(op)
        if info is None:
            return
        run_dir = info.pop("run_dir")
        model, loader, p_sa, kwargs = info.pop("eval_args")
        self.last_model, self.last_images = model, next(iter(loader))[0]
        try:
            with open(os.path.join(run_dir, "events.jsonl")) as handle:
                events = [json.loads(line) for line in handle]
            info["telemetry_events"] = len(events)
            info["telemetry_bytes"] = sum(
                os.path.getsize(os.path.join(run_dir, name))
                for name in os.listdir(run_dir)
            )
            with open(os.path.join(run_dir, "metrics.json")) as handle:
                counters = json.load(handle)["counters"]
            info["retries"] = counters.get("parallel/retries_total", 0)
            info["fallbacks"] = counters.get("parallel/fallbacks_total", 0)
            with contextlib.redirect_stdout(io.StringIO()) as report:
                status = telemetry_cli.main(["validate", run_dir])
            if status != 0:
                outcomes.fail(op, "telemetry validate: " + report.getvalue()[-200:])
            pooled = {
                event["draw"]: event["accuracy"]
                for event in events
                if event["kind"] == "defect_draw"
            }
            outputs = dict(
                info["result"],
                ft_final_loss=[
                    event["final_loss"] for event in events if event["kind"] == "train_end"
                ][-1],
            )
        finally:
            shutil.rmtree(self.telemetry_dir, ignore_errors=True)
        if sorted(pooled) != list(range(self.DRAWS)):
            outcomes.fail(op, "pooled draws missing from the event log")
            return
        in_order = [pooled[draw] for draw in range(self.DRAWS)]
        # Worker-count invariance: recompute sampled draws serially.
        picks = np.random.default_rng(self.seed + index).choice(
            self.DRAWS, size=self.SAMPLED_DRAWS, replace=False
        )
        streams = draw_streams(kwargs["seed"], self.DRAWS)
        for draw in sorted(int(d) for d in picks):
            serial = evaluate_one_draw(model, loader, FaultDrawSpec(p_sa), streams[draw])
            if serial != pooled[draw]:
                outcomes.fail(op, f"draw {draw}: serial {serial} != pooled {pooled[draw]}")
        if outputs["acc_defect"] != float(np.mean(in_order)):
            outcomes.fail(op, "acc_defect is not the mean of the pooled draws")
        if self.first is None:
            self.first = outputs
        elif outputs != self.first:
            outcomes.fail(op, "same seed gave a different cell result")

    def final_checks(self, units, outcomes, reference) -> dict:
        observed = dict(self.first or {})
        if reference is not None and observed:
            # Accuracies are counts over 300 test images; float64
            # summation-order changes amplified by training may flip one
            # or two.  The final FT loss catches smaller drifts, as in
            # ft_train_r8.
            tolerance = {
                "acc_pretrain": (0.0, 1.0),
                "acc_retrain": (0.0, 1.0),
                "acc_defect": (0.0, 1.0),
                "acc_std": (0.0, 0.5),
                "stability_score": (0.0, 0.05),
                "ft_final_loss": (1e-6, 0.0),
            }
            for key, (rel, abs_tol) in tolerance.items():
                if not _close(observed[key], reference[key], rel=rel, abs_=abs_tol):
                    outcomes.fail_all(
                        [op for i in range(len(units)) for op in self.unit_ops(i)],
                        f"{key} differs from reference",
                    )
        return observed

    def retained_probe(self) -> int:
        return self._retained_after_eval(self.last_model, self.last_images)


WORKLOADS = {cls.name: cls for cls in (McEvalR20, FtTrainR8, PipelineCellW2)}
