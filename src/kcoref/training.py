"""Parameter store, gradients, the optimizer, and the training schedule.

Training runs one document at a time (optionally accumulating gradients
over several documents) through the combined objective, with separate
learning rates for the encoder and the task heads. A source-role phase
forces the knowledge weights and the scaffold weight to zero. Under glibc,
the schedule and prediction keep freed memory in the process heap, so a
doc-step or a document does not fault its arrays back in from the kernel.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import math
from collections import Counter
from dataclasses import dataclass
from os.path import commonprefix
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from . import losses as L
from . import model as m
from .corpus import Document, check_field, read_text
from .model import UNK_TOKEN, ModelConfig

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = "kcoref-checkpoint"
# `save` writes v2; `load` also reads v1 files.
CHECKPOINT_VERSION = 2

TASK_PREFIXES = ("scorer.", "scaffold.")

# The adaptive-moment update's decay rates and denominator guard.
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


class TrainingError(RuntimeError):
    pass


class TrainingDiverged(TrainingError):
    """Loss went NaN; carries the last finite parameter snapshot."""

    def __init__(self, message: str, last_good: "ParameterStore",
                 records: list["EpochRecord"]):
        super().__init__(message)
        self.last_good = last_good
        self.records = records


Layout = tuple[tuple[str, tuple[int, ...]], ...]


@dataclass
class ParameterStore:
    """Named tensors plus the vocabulary and scaffold class list.

    The tensors live in one contiguous float64 buffer, in sorted name order,
    so one vectorized update covers every parameter. The layout is fixed
    when the store is built: the arrays passed in are copied into the
    buffer, and `tensors` is a read-only mapping of views of it. Parameters
    change in place; a different set of tensors needs a new store.
    """

    tensors: Mapping[str, np.ndarray]
    vocab: tuple[str, ...]
    scaffold_classes: tuple[str, ...] = ()
    step: int = 0
    seed: int = 0

    def __post_init__(self):
        for name in ("seed", "step"):
            check_field(TrainingError, name, getattr(self, name), "integer", 0)
        # Prediction maps unknown tokens to row 0: an empty vocab needs it.
        if tuple(self.vocab[:1]) != (UNK_TOKEN,):
            raise TrainingError(f"vocab must start with {UNK_TOKEN!r}")
        for what, names in (("vocab tokens", self.vocab),
                            ("scaffold classes", self.scaffold_classes)):
            if len(set(names)) != len(names):
                twice = sorted(n for n, k in Counter(names).items() if k > 1)
                raise TrainingError(f"duplicate {what}: {twice}")
            broken = [n for n in names if "".join(n.splitlines()) != n]
            if broken:
                raise TrainingError(f"{what} with a line boundary cannot be "
                                    f"saved: {broken}")
        self._vocab_index = MappingProxyType(
            {tok: i for i, tok in enumerate(self.vocab)})
        arrays = {name: np.asarray(self.tensors[name], dtype=np.float64)
                  for name in sorted(self.tensors)}
        self._layout = tuple((name, a.shape) for name, a in arrays.items())
        self._buffer = (np.concatenate(list(arrays.values()), axis=None)
                        if arrays else np.zeros(0))
        self.tensors = MappingProxyType(self.named(self._buffer))
        self._groups = None
        self._gradient = None

    @property
    def vocab_index(self) -> Mapping[str, int]:
        return self._vocab_index

    @property
    def groups(self) -> tuple[m.EncoderParams, m.ScoringParams,
                              L.ScaffoldParams | None]:
        """The tensors as the encoder, scorer and scaffold parameter groups
        (`group_parameters`), built on first use and kept."""
        if self._groups is None:
            self._groups = group_parameters(self.tensors, self)
        return self._groups

    def buffer(self) -> np.ndarray:
        """The flat parameter buffer."""
        return self._buffer

    def named(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each tensor's stretch of `flat`, an array laid out like the
        buffer (a gradient, say), as a view named by the tensor."""
        views, start = {}, 0
        for name, shape in self._layout:
            end = start + math.prod(shape)
            views[name] = flat[start:end].reshape(shape)
            start = end
        return views

    def copy(self) -> "ParameterStore":
        """A store with its own copy of the buffer. It shares the checked
        vocabulary, its read-only index and the layout, so nothing is
        checked or indexed again."""
        clone = object.__new__(ParameterStore)
        clone.__dict__.update(self.__dict__, _buffer=self._buffer.copy(),
                              _groups=None, _gradient=None)
        clone.tensors = MappingProxyType(clone.named(clone._buffer))
        return clone

    def __reduce__(self):
        # A pickle carries the tensors as plain arrays; loading it builds
        # the buffer and its views again.
        return ParameterStore, (dict(self.tensors), self.vocab,
                                self.scaffold_classes, self.step, self.seed)

    def checkpoint_text(self, version: int = CHECKPOINT_VERSION) -> str:
        """The checkpoint file of this store in format `version`: v2 holds
        each tensor's values as the hex of their little-endian float64 bytes
        and ends with a SHA-256 digest of every byte above it, v1 holds
        `float.hex` strings and no digest."""
        lines = [f"{CHECKPOINT_MAGIC} v{version}", f"seed {self.seed}",
                 f"step {self.step}", f"vocab {len(self.vocab)}", *self.vocab,
                 f"classes {len(self.scaffold_classes)}",
                 *self.scaffold_classes]
        for name, tensor in self.tensors.items():
            lines.append(" ".join(["tensor", name, str(tensor.ndim),
                                   *map(str, tensor.shape)]))
            lines.append(tensor.astype("<f8").tobytes().hex() if version > 1
                         else " ".join(map(float.hex, tensor.reshape(-1))))
        text = "\n".join(lines) + "\n"
        if version > 1:
            text += f"sha256 {hashlib.sha256(text.encode()).hexdigest()}\n"
        return text + "end\n"

    def save(self, path) -> None:
        Path(path).write_bytes(self.checkpoint_text().encode("utf-8"))

    @classmethod
    def load(cls, path) -> "ParameterStore":
        """The store in checkpoint file `path`, which must be exactly the
        `checkpoint_text` of that store in the file's version, with finite
        values. The file is parsed leniently and compared with that text, so
        any byte `save` would not write fails; in v2 an edited value fails on
        the digest line."""
        path = Path(path)
        text = read_text(path, TrainingError, newline="")
        lines = text.splitlines() or [""]
        magic, _, version = lines[0].partition(" v")
        if magic != CHECKPOINT_MAGIC:
            raise TrainingError(f"{path}: not a checkpoint file")
        if version not in ("1", "2"):
            raise TrainingError(f"{path}: unsupported checkpoint version "
                                f"{version!r}")
        pos, rows, tensors = 1, {}, {}  # rows: value-row line -> tensor

        def header(names: bool):
            """The number on line `pos`, or the `names` lines it counts; a
            negative number does not parse."""
            nonlocal pos
            n = int(lines[pos].partition(" ")[2])
            if n < 0:
                raise ValueError(n)
            listed = tuple(lines[pos + 1:pos + 1 + n]) if names else ()
            pos += 1 + len(listed)
            return listed if names else n

        try:
            seed, step = header(False), header(False)
            vocab, classes = header(True), header(True)
            while lines[pos].startswith("tensor "):
                _, name, _, *dims = lines[pos].split()
                pos += 1
                rows[pos] = name
                values = np.frombuffer(bytes.fromhex(lines[pos]), "<f8") \
                    if version == "2" else \
                    np.array([float.fromhex(v) for v in lines[pos].split()])
                if not np.isfinite(values).all():
                    raise TrainingError(f"tensor {name} has a non-finite value")
                tensors[name] = values.reshape([int(d) for d in dims])
                pos += 1
            store = cls(tensors, vocab, classes, step, seed)
        except (IndexError, ValueError, OverflowError):
            raise TrainingError(f"{path}: line {pos + 1} does not parse "
                                f"({_shown(lines, pos, rows)})") from None
        except TrainingError as exc:
            raise TrainingError(f"{path}: {exc}") from None
        if text != (expected := store.checkpoint_text(int(version))):
            got, want = text.splitlines(True), expected.splitlines(True)
            i = len(commonprefix([got, want]))  # the first line that differs
            what = "other text" if i in rows else _shown(want, i, rows)
            raise TrainingError(f"{path}: line {i + 1} is {_shown(got, i, rows)}"
                                f", where save writes {what}")
        return store


def _shown(lines: Sequence[str], i: int, rows: Mapping[int, str]) -> str:
    """Line `i` of a checkpoint as an error shows it: a value row by its
    tensor, a long line by its length."""
    if i in rows:
        return f"the values of tensor {rows[i]}"
    if i >= len(lines):
        return "the end of the file"
    return repr(lines[i]) if len(lines[i]) <= 80 \
        else f"a line of {len(lines[i])} characters"


def build_vocab(docs: Sequence[Document]) -> tuple[str, ...]:
    """Deterministic token vocabulary: the unknown symbol, then sorted surfaces."""
    surfaces = sorted({t for d in docs for t in d.tokens})
    return (UNK_TOKEN, *surfaces)


def _tensor_specs(config: ModelConfig, n_vocab: int,
                  n_classes: int) -> list[tuple[str, tuple[int, ...], str]]:
    d, dw = config.d_token, config.d_width
    window = 2 * config.window_radius + 1
    span_dim = config.span_dim
    specs: list[tuple[str, tuple[int, ...], str]] = [
        ("encoder.embeddings", (n_vocab, d), "uniform"),
        ("encoder.mixer_w", (window * d, d), "uniform"),
        ("encoder.mixer_b", (d,), "zeros"),
        ("encoder.attention_w", (d,), "uniform"),
        ("encoder.width_embeddings", (config.n_width_buckets, dw), "uniform"),
    ]
    hidden = config.scorer_hidden
    for head, in_dim in (("mention", span_dim), ("antecedent", 3 * span_dim)):
        if hidden > 0:
            specs += [(f"scorer.{head}.w1", (in_dim, hidden), "uniform"),
                      (f"scorer.{head}.b1", (hidden,), "zeros"),
                      (f"scorer.{head}.w2", (hidden,), "uniform"),
                      (f"scorer.{head}.b2", (), "zeros")]
        else:
            specs += [(f"scorer.{head}.w1", (in_dim,), "uniform"),
                      (f"scorer.{head}.b2", (), "zeros")]
    if n_classes > 0:
        specs.append(("scaffold.weights", (n_classes, d), "zeros"))
    return specs


def check_parameters(store: ParameterStore, config: ModelConfig) -> None:
    """Require exactly the tensors, and shapes, that `config` builds.

    A checkpoint that lacks a tensor would otherwise bind silently to a
    different model (a missing `w2` makes a head linear).
    """
    expected = {name: shape for name, shape, _ in _tensor_specs(
        config, len(store.vocab), len(store.scaffold_classes))}
    missing = sorted(expected.keys() - store.tensors.keys())
    extra = sorted(store.tensors.keys() - expected.keys())
    if missing or extra:
        raise TrainingError(f"parameters do not match the model config: "
                            f"missing {missing}, unexpected {extra}")
    for name, shape in expected.items():
        if store.tensors[name].shape != shape:
            raise TrainingError(f"tensor {name} has shape "
                                f"{store.tensors[name].shape}, the model "
                                f"config needs {shape}")


def init_parameters(config: ModelConfig, vocab: tuple[str, ...],
                    scaffold_classes: tuple[str, ...] = (),
                    seed: int = 0) -> ParameterStore:
    """Seeded uniform fan-in initialization; biases and the scaffold start at 0."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape, kind in _tensor_specs(config, len(vocab),
                                           len(scaffold_classes)):
        if kind == "zeros" or not shape:
            tensors[name] = np.zeros(shape)
        else:
            fan_in = shape[0] if len(shape) == 1 else shape[-2]
            bound = 1.0 / np.sqrt(fan_in)
            tensors[name] = rng.uniform(-bound, bound, size=shape)
    return ParameterStore(tensors, vocab, scaffold_classes, step=0, seed=seed)


def group_parameters(arrays: Mapping[str, np.ndarray], store: ParameterStore,
                     ) -> tuple[m.EncoderParams, m.ScoringParams,
                                L.ScaffoldParams | None]:
    """Named arrays in the store's layout (its tensors, or a gradient) as
    the encoder, scorer and scaffold parameter groups. A group takes the
    arrays named under its prefix, each as the field the rest of the name
    spells: `encoder.mixer_w` is `EncoderParams.mixer_w`, and a linear
    head's `w1` and `b2` leave `FeedForward`'s `b1` and `w2` unset."""

    def fields(prefix: str) -> dict[str, np.ndarray]:
        return {name.removeprefix(prefix): array
                for name, array in arrays.items() if name.startswith(prefix)}

    enc = m.EncoderParams(**fields("encoder."), vocab=store.vocab_index)
    scoring = m.ScoringParams(m.FeedForward(**fields("scorer.mention.")),
                              m.FeedForward(**fields("scorer.antecedent.")))
    scaffold = fields("scaffold.")
    return enc, scoring, (L.ScaffoldParams(store.scaffold_classes, **scaffold)
                          if scaffold else None)


# A loss builder returns the objectives whose totals sum to the loss: each
# has a float `total` and `backward(enc, scoring, scaffold)`, which writes
# the gradient of `total` into those groups of gradient views (see
# `losses.DocumentLosses`).
LossBuilder = Callable[[m.EncoderParams, m.ScoringParams,
                        L.ScaffoldParams | None], Sequence[L.DocumentLosses]]


def compute_gradients(store: ParameterStore, build_loss: LossBuilder,
                      ) -> tuple[np.ndarray, Sequence[L.DocumentLosses]]:
    """The gradient of a scalar loss, laid out like `store.buffer()`, and
    the objectives `build_loss` returned.

    Each objective's closed-form backward writes into a zeroed flat buffer
    kept per store with its parameter groups; the objectives add up, in
    order, into a fresh array.
    """
    objectives = build_loss(*store.groups)
    value = sum(objective.total for objective in objectives)
    if not np.isfinite(value):
        raise TrainingError(f"loss is not finite: {value}")
    if store._gradient is None:
        flat = np.zeros(store._buffer.size)
        store._gradient = flat, group_parameters(store.named(flat), store)
    flat, groups = store._gradient
    total = None if objectives else np.zeros(flat.size)
    for objective in objectives:
        flat.fill(0.0)
        objective.backward(*groups)
        # The first as flat + 0.0, the bytes of a sum from zeros (-0.0 is
        # +0.0 there), without the zeros.
        total = flat + 0.0 if total is None else np.add(total, flat,
                                                        out=total)
    if not np.isfinite(total).all():
        name = next(name for name, grad in store.named(total).items()
                    if not np.isfinite(grad).all())
        raise TrainingError(f"non-finite gradient in tensor {name}")
    return total, objectives


def learning_rates(store: ParameterStore, base: float,
                   task: float) -> np.ndarray:
    """The per-element learning rates of the store's buffer: `task` for the
    scorer and scaffold tensors, `base` for the encoder's."""
    return np.repeat(
        [float(task if name.startswith(TASK_PREFIXES) else base)
         for name, _ in store._layout],
        [math.prod(shape) for _, shape in store._layout])


@dataclass
class AdamState:
    """First/second moment accumulators for the adaptive-moment update,
    flat in the buffer order of `layout`, the layout they were sized for."""

    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    layout: Layout | None = None


def optimizer_step(store: ParameterStore, grad: np.ndarray, lr: np.ndarray,
                   state: AdamState) -> ParameterStore:
    """One adaptive-moment update of the store's buffer by `grad`, with the
    per-element rates `lr` (`learning_rates`), both laid out like it, in
    place; returns the store.

    Every element goes through the IEEE operations of the per-tensor update,
    in the same order, so the result is bit-identical to it.
    """
    params = store._buffer
    for what, array in (("gradient", grad), ("learning-rate vector", lr)):
        if np.shape(array) != params.shape:
            raise TrainingError(f"{what} has shape {np.shape(array)}, the "
                                f"parameter buffer {params.shape}")
    if store._layout != state.layout:
        if state.t:
            raise TrainingError("the parameters' tensors or shapes changed "
                                "after the first optimizer step")
        state.m, state.v = np.zeros(params.size), np.zeros(params.size)
        state.layout = store._layout
    state.t += 1
    m, v = state.m, state.v
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    square = np.square(grad)
    scaled = np.multiply(grad, 1 - b1)
    m *= b1
    m += scaled
    v *= b2
    v += np.multiply(square, 1 - b2, out=square)
    denom = np.sqrt(np.divide(v, 1 - b2**state.t, out=square), out=square)
    denom += ADAM_EPSILON
    update = np.divide(m, 1 - b1**state.t, out=scaled)
    update *= lr
    update /= denom
    params -= update
    store.step += 1
    return store


# ---------------------------------------------------------------------------
# Schedule


@dataclass
class Phase:
    """One stretch of training on one corpus with fixed weights and rates."""

    corpus: str
    epochs: int
    weights: L.LossWeights
    base_lr: float = 1e-3
    task_lr: float = 1e-3
    role: str = "target"

    def __post_init__(self):
        check_field(TrainingError, "corpus", self.corpus, "string")
        check_field(TrainingError, "epochs", self.epochs, "integer", 1)
        if self.role not in ("source", "target"):
            raise TrainingError(f"unknown phase role {self.role!r}")
        for name in ("base_lr", "task_lr"):
            check_field(TrainingError, name, getattr(self, name), "number", 0)


@dataclass
class TrainingSchedule:
    phases: list[Phase]

    def __post_init__(self):
        if not self.phases:
            raise TrainingError("schedule needs at least one phase")


@dataclass
class EpochRecord:
    phase: int
    epoch: int
    cl: float
    rl: float
    sl: float
    total: float
    pruning_misses: int = 0


def effective_weights(phase: Phase,
                      objective: L.ObjectiveConfig) -> L.LossWeights:
    """Source phases train without concept knowledge or the scaffold."""
    if phase.role != "source":
        return phase.weights
    beta1, beta2, _ = phase.weights.beta
    if not objective.source_phase_rl:
        beta2 = 0.0
    alpha_k = {k: 0.0 for k in phase.weights.alpha_k}
    return L.LossWeights(phase.weights.alpha_c, alpha_k, (beta1, beta2, 0.0))


# glibc's `mallopt` parameters, and the values the schedule sets. A doc-step
# allocates and frees a few MiB of arrays. At glibc's defaults the heap's
# free top is trimmed back to the kernel between doc-steps, and the next one
# faults the pages in again: dozens of faults per short document, about a
# thousand per 436-token one. The mmap threshold is glibc's 64-bit maximum,
# so no array a doc-step makes is mmapped; the trim threshold keeps up to
# 64 MiB of free heap. `M_TOP_PAD` is not the tool: setting it turns off
# glibc's dynamic mmap threshold, and long documents then fault more.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
TRIM_THRESHOLD = 64 << 20
MMAP_THRESHOLD = 32 << 20


@functools.cache
def keep_heap() -> bool:
    """Set the process's malloc thresholds once; False where the C library
    has no `mallopt`, or rejects a value."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))


def run_schedule(schedule: TrainingSchedule,
                 corpora: Mapping[str, Sequence[Document]],
                 config: ModelConfig, objective: L.ObjectiveConfig,
                 store: ParameterStore,
                 checkpoint_dir=None,
                 ) -> tuple[ParameterStore, list[EpochRecord]]:
    """Run every phase in order, logging per-epoch loss components.

    A step sums the gradients of the next `objective.grad_accumulation`
    documents in one `compute_gradients` call; document `doc_no` seeds its
    RL pair sampling with `[pair_seed, phase, epoch, doc_no]`. Divergence
    (NaN loss) aborts with a TrainingDiverged naming the step's documents
    and carrying the last finite epoch's parameters, also written to
    `checkpoint_dir` when one is given.

    The first call in a process sets glibc's malloc thresholds
    (`keep_heap`), so the memory a doc-step frees stays in the heap for the
    next one. The setting is process-wide, holds for every later
    allocation, and cannot be undone; it changes no computed number, and
    where the C library has no `mallopt` training runs without it.
    """
    keep_heap()
    records: list[EpochRecord] = []
    last_good = store.copy()
    state = AdamState()
    size = objective.grad_accumulation
    for phase_no, phase in enumerate(schedule.phases, start=1):
        if phase.corpus not in corpora:
            raise TrainingError(f"phase {phase_no}: unknown corpus "
                                f"{phase.corpus!r}")
        docs = list(enumerate(corpora[phase.corpus]))
        weights = effective_weights(phase, objective)
        lr = learning_rates(store, phase.base_lr, phase.task_lr)
        for epoch in range(1, phase.epochs + 1):
            sums = {"cl": 0.0, "rl": 0.0, "sl": 0.0, "total": 0.0,
                    "pruning_misses": 0}
            for first in range(0, len(docs), size):
                step = docs[first:first + size]

                def build(enc, scoring, scaffold):
                    return [L.document_objective(
                        doc, enc, scoring, scaffold, weights, config,
                        objective, [objective.pair_seed, phase_no, epoch,
                                    doc_no])
                        for doc_no, doc in step]

                try:
                    grads, step_losses = compute_gradients(store, build)
                except (TrainingError, L.LossError) as exc:
                    if checkpoint_dir is not None:
                        path = Path(checkpoint_dir) / "last_good.ckpt"
                        path.parent.mkdir(parents=True, exist_ok=True)
                        last_good.save(path)
                    names = ", ".join(doc.doc_id for _, doc in step)
                    raise TrainingDiverged(
                        f"phase {phase_no} epoch {epoch} doc {names}: {exc}",
                        last_good, records) from exc

                for losses in step_losses:
                    for key in sums:
                        sums[key] += getattr(losses, key)
                optimizer_step(store, grads, lr, state)
            records.append(EpochRecord(phase_no, epoch, **sums))
            last_good = store.copy()
    return store, records


def write_loss_log(records: Sequence[EpochRecord], path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write("phase\tepoch\tcl\trl\tsl\ttotal\tpruning_misses\n")
        for r in records:
            handle.write(f"{r.phase}\t{r.epoch}\t{r.cl!r}\t{r.rl!r}\t{r.sl!r}\t"
                         f"{r.total!r}\t{r.pruning_misses}\n")


# ---------------------------------------------------------------------------
# Finite-difference gradient checking


@dataclass
class GradCheckReport:
    """Max relative error per tensor from central-difference probing."""

    per_tensor: dict[str, float]
    threshold: float
    epsilon: float

    @property
    def max_error(self) -> float:
        return max(self.per_tensor.values()) if self.per_tensor else 0.0

    @property
    def passed(self) -> bool:
        return self.max_error < self.threshold

    def summary(self) -> str:
        lines = [f"gradient check (eps={self.epsilon:g}, "
                 f"threshold={self.threshold:g})"]
        for name in sorted(self.per_tensor):
            err = self.per_tensor[name]
            flag = "ok" if err < self.threshold else "FAIL"
            lines.append(f"  {name:32s} max_rel_err={err:.3e} {flag}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def gradient_check(store: ParameterStore, build_loss: LossBuilder,
                   epsilon: float = 1e-5,
                   threshold: float = 1e-4, coords_per_tensor: int = 20,
                   seed: int = 0) -> GradCheckReport:
    """Compare reverse-mode gradients against central finite differences.

    Probes at least `coords_per_tensor` seeded coordinates per tensor (all of
    them for small tensors). A non-finite analytic or numeric derivative
    makes the tensor's error inf, so it fails. It repeats doc-steps, so it
    keeps the heap (`keep_heap`) as training does.
    """
    keep_heap()
    grads = store.named(compute_gradients(store, build_loss)[0])
    rng = np.random.default_rng(seed)
    probe = store.copy()
    per_tensor: dict[str, float] = {}
    for name in sorted(store.tensors):
        tensor = probe.tensors[name]
        size = tensor.size
        if size == 0:
            per_tensor[name] = 0.0
            continue
        if size <= coords_per_tensor:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=coords_per_tensor, replace=False)
        flat = tensor.reshape(-1)
        worst = 0.0
        for c in coords:
            original = flat[c]
            flat[c] = original + epsilon
            hi = _loss_only(probe, build_loss)
            flat[c] = original - epsilon
            lo = _loss_only(probe, build_loss)
            flat[c] = original
            # in Python floats a non-finite difference is nan or inf without
            # a warning; it fails the tensor outright
            numeric = (float(hi) - float(lo)) / (2 * epsilon)
            analytic = float(grads[name].reshape(-1)[c])
            if not (math.isfinite(numeric) and math.isfinite(analytic)):
                worst = math.inf
                break
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric),
                                                1e-8)
            worst = max(worst, err)
        per_tensor[name] = worst
    return GradCheckReport(per_tensor, threshold, epsilon)


def _loss_only(store: ParameterStore, build_loss: LossBuilder) -> float:
    return sum(objective.total for objective in build_loss(*store.groups))
