"""Parameter store, gradients, the optimizer, and the training schedule.

Training runs one document at a time (optionally accumulating gradients
over several documents) through the combined objective, with separate
learning rates for the encoder and the task heads. A source-role phase
forces the knowledge weights and the scaffold weight to zero.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from . import losses as L
from . import model as m
from .corpus import Document
from .model import UNK_TOKEN, ModelConfig

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = "kcoref-checkpoint"
CHECKPOINT_VERSION = 1

TASK_PREFIXES = ("scorer.", "scaffold.")


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


def _views(buffer: np.ndarray, layout: Layout) -> dict[str, np.ndarray]:
    """Each tensor of `layout` as a view of its stretch of the flat buffer."""
    views, start = {}, 0
    for name, shape in layout:
        end = start + math.prod(shape)
        views[name] = buffer[start:end].reshape(shape)
        start = end
    return views


class Gradients(Mapping[str, np.ndarray]):
    """Named gradients held as one flat vector in a store's buffer order;
    each value is a view of it."""

    def __init__(self, flat: np.ndarray, layout: Layout):
        self.flat, self.layout = flat, layout
        self._named: dict[str, np.ndarray] | None = None

    def __getitem__(self, name: str) -> np.ndarray:
        if self._named is None:
            self._named = _views(self.flat, self.layout)
        return self._named[name]

    def __iter__(self):
        return (name for name, _ in self.layout)

    def __len__(self) -> int:
        return len(self.layout)


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
        if self.vocab and self.vocab[0] != UNK_TOKEN:
            raise TrainingError(f"vocab must start with {UNK_TOKEN!r}")
        for what, names in (("vocab tokens", self.vocab),
                            ("scaffold classes", self.scaffold_classes)):
            if len(set(names)) != len(names):
                twice = sorted(n for n, k in Counter(names).items() if k > 1)
                raise TrainingError(f"duplicate {what}: {twice}")
        self._vocab_index = {tok: i for i, tok in enumerate(self.vocab)}
        arrays = {name: np.asarray(self.tensors[name], dtype=np.float64)
                  for name in sorted(self.tensors)}
        self._layout = tuple((name, a.shape) for name, a in arrays.items())
        self._buffer = (np.concatenate(list(arrays.values()), axis=None)
                        if arrays else np.zeros(0))
        self.tensors = MappingProxyType(_views(self._buffer, self._layout))
        self._groups = None

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

    def gather(self, grads: Mapping[str, np.ndarray]) -> Gradients:
        """Named gradients as one flat vector in buffer order.

        There must be a gradient for exactly the store's tensors, each of its
        tensor's shape. Gradients already in this layout pass as they are.
        """
        if isinstance(grads, Gradients) and grads.layout == self._layout:
            return grads
        tensors = self.tensors
        if grads.keys() != tensors.keys():
            missing = sorted(tensors.keys() - grads.keys())
            extra = sorted(grads.keys() - tensors.keys())
            raise TrainingError(f"gradients do not match the parameters: "
                                f"missing {missing}, unexpected {extra}")
        parts = [grads[name] for name in tensors]
        for (name, shape), grad in zip(self._layout, parts):
            if grad.shape != shape:
                raise TrainingError(f"gradient shape mismatch for {name}: "
                                    f"{grad.shape}, the tensor is {shape}")
        return Gradients(np.concatenate(parts, axis=None, dtype=np.float64)
                         if parts else np.zeros(0), self._layout)

    def copy(self) -> "ParameterStore":
        return ParameterStore(self.tensors, self.vocab, self.scaffold_classes,
                              self.step, self.seed)

    def save(self, path) -> None:
        path = Path(path)
        lines = [f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}",
                 f"seed {self.seed}", f"step {self.step}",
                 f"vocab {len(self.vocab)}"]
        lines.extend(self.vocab)
        lines.append(f"classes {len(self.scaffold_classes)}")
        lines.extend(self.scaffold_classes)
        for name in sorted(self.tensors):
            tensor = self.tensors[name]
            dims = " ".join(str(d) for d in tensor.shape)
            lines.append(f"tensor {name} {tensor.ndim}"
                         + (f" {dims}" if tensor.ndim else ""))
            lines.append(" ".join(float(x).hex() for x in tensor.reshape(-1)))
        lines.append("end")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "ParameterStore":
        path = Path(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        magic, _, version = lines[0].partition(" v") if lines else ("", "", "")
        if magic != CHECKPOINT_MAGIC:
            raise TrainingError(f"{path}: not a checkpoint file")
        if version != str(CHECKPOINT_VERSION):
            raise TrainingError(f"{path}: unsupported checkpoint version "
                                f"{version!r}")
        pos = 1

        def header(label: str) -> int:
            nonlocal pos
            parts = lines[pos].split(" ")
            if len(parts) != 2 or parts[0] != label or not parts[1].isdigit():
                raise TrainingError(f"{path}: line {pos + 1} is "
                                    f"{lines[pos]!r}, not '{label} <n>'")
            pos += 1
            return int(parts[1])

        try:
            seed, step = header("seed"), header("step")
            n_vocab = header("vocab")
            vocab = tuple(lines[pos:pos + n_vocab]); pos += n_vocab
            n_classes = header("classes")
            classes = tuple(lines[pos:pos + n_classes]); pos += n_classes
            tensors: dict[str, np.ndarray] = {}
            while lines[pos] != "end":
                fields = lines[pos].split(); pos += 1
                if len(fields) < 3 or fields[0] != "tensor":
                    raise TrainingError(f"{path}: malformed tensor header "
                                        f"{' '.join(fields)!r}")
                name, ndim = fields[1], int(fields[2])
                if len(fields) != 3 + ndim:
                    raise TrainingError(f"{path}: tensor {name} lists "
                                        f"{len(fields) - 3} dims for ndim "
                                        f"{ndim}")
                if name in tensors:
                    raise TrainingError(f"{path}: tensor {name} is listed "
                                        f"twice")
                shape = tuple(int(d) for d in fields[3:])
                values = np.array([float.fromhex(tok)
                                   for tok in lines[pos].split()]); pos += 1
                if values.size != math.prod(shape):
                    raise TrainingError(f"{path}: tensor {name} has "
                                        f"{values.size} values for shape "
                                        f"{shape}")
                if not np.isfinite(values).all():
                    raise TrainingError(f"{path}: tensor {name} has a "
                                        f"non-finite value")
                tensors[name] = values.reshape(shape)
        except IndexError:
            raise TrainingError(f"{path}: truncated checkpoint (no 'end' "
                                f"line)") from None
        except ValueError as exc:
            raise TrainingError(f"{path}: malformed checkpoint: {exc}") \
                from None
        if pos != len(lines) - 1:
            raise TrainingError(f"{path}: text after the 'end' line")
        return cls(tensors, vocab, classes, step, seed)


def build_vocab(docs: Sequence[Document]) -> tuple[str, ...]:
    """Deterministic token vocabulary: the unknown symbol, then sorted surfaces."""
    surfaces = sorted({t.surface for d in docs for t in d.tokens})
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
                    scaffold_classes: tuple[str, ...] = (), seed: int = 0,
                    zero_init: bool = False) -> ParameterStore:
    """Seeded uniform fan-in initialization; biases and the scaffold start at 0."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape, kind in _tensor_specs(config, len(vocab),
                                           len(scaffold_classes)):
        if zero_init or kind == "zeros" or not shape:
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
    the encoder, scorer and scaffold parameter groups."""
    enc = m.EncoderParams(
        embeddings=arrays["encoder.embeddings"],
        mixer_w=arrays["encoder.mixer_w"],
        mixer_b=arrays["encoder.mixer_b"],
        attention_w=arrays["encoder.attention_w"],
        width_embeddings=arrays["encoder.width_embeddings"],
        vocab=store.vocab_index)

    def head(prefix: str) -> m.FeedForward:
        if f"{prefix}.w2" in arrays:
            return m.FeedForward(w1=arrays[f"{prefix}.w1"],
                                 b1=arrays[f"{prefix}.b1"],
                                 w2=arrays[f"{prefix}.w2"],
                                 b2=arrays[f"{prefix}.b2"])
        return m.FeedForward(w1=arrays[f"{prefix}.w1"],
                             b2=arrays[f"{prefix}.b2"])

    scoring = m.ScoringParams(mention=head("scorer.mention"),
                              antecedent=head("scorer.antecedent"))
    scaffold = None
    if "scaffold.weights" in arrays:
        classes = store.scaffold_classes
        none_class = classes[-1] if classes and classes[-1] == "<none>" else None
        scaffold = L.ScaffoldParams(classes, arrays["scaffold.weights"],
                                    none_class)
    return enc, scoring, scaffold


# A loss builder returns the objectives whose totals sum to the loss: each
# has a float `total` and `backward(g, enc, scoring, scaffold)`, which
# writes g times the gradient of `total` into those groups of gradient
# views (see `losses.DocumentLosses`).
LossBuilder = Callable[[m.EncoderParams, m.ScoringParams,
                        L.ScaffoldParams | None], Sequence[L.DocumentLosses]]


def compute_gradients(store: ParameterStore,
                      build_loss: LossBuilder) -> tuple[Gradients, float]:
    """Gradients of a scalar loss over every named tensor.

    Each objective's closed-form backward writes into a fresh flat array in
    the store's layout; the arrays add up in objective order.
    """
    objectives = build_loss(*store.groups)
    value = sum(objective.total for objective in objectives)
    if not np.isfinite(value):
        raise TrainingError(f"loss is not finite: {value}")
    size, layout = store._buffer.size, store._layout
    total = None
    for objective in objectives:
        flat = np.zeros(size)
        objective.backward(1.0, *group_parameters(Gradients(flat, layout),
                                                  store))
        total = flat if total is None else total + flat
    grads = Gradients(np.zeros(size) if total is None else total, layout)
    if not np.isfinite(grads.flat).all():
        name = next(name for name, grad in grads.items()
                    if not np.isfinite(grad).all())
        raise TrainingError(f"non-finite gradient in tensor {name}")
    return grads, value


@dataclass
class LearningRates:
    """Base rate for encoder tensors, task rate for scorer/scaffold heads."""

    base: float
    task: float

    def rate_for(self, name: str) -> float:
        if name.startswith(TASK_PREFIXES):
            return self.task
        return self.base


@dataclass
class AdamState:
    """First/second moment accumulators for the adaptive-moment update.

    `m`, `v` and the per-element learning rates `lr` are flat, in the buffer
    order of `layout`; `lr` is rebuilt from `LearningRates.rate_for` only
    when the learning rates change.
    """

    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    lr: np.ndarray | None = None
    layout: Layout | None = None
    rates: LearningRates | None = None

    def bind(self, layout: Layout, rates: LearningRates) -> None:
        """Size the moments for `layout` and build its rate vector."""
        if layout != self.layout:
            if self.t:
                raise TrainingError("the parameters' tensors or shapes "
                                    "changed after the first optimizer step")
            size = sum(math.prod(shape) for _, shape in layout)
            self.m, self.v = np.zeros(size), np.zeros(size)
            self.layout, self.rates = layout, None
        if rates != self.rates:
            self.lr = np.repeat(
                [float(rates.rate_for(name)) for name, _ in layout],
                [math.prod(shape) for _, shape in layout])
            self.rates = LearningRates(rates.base, rates.task)


def optimizer_step(store: ParameterStore, grads: Mapping[str, np.ndarray],
                   rates: LearningRates, state: AdamState) -> ParameterStore:
    """One adaptive-moment update of the store's buffer, in place; returns
    the store.

    Every element goes through the IEEE operations of the per-tensor update,
    in the same order, so the result is bit-identical to it.
    """
    grad = store.gather(grads).flat
    params = store._buffer
    state.bind(store._layout, rates)
    state.t += 1
    m, v = state.m, state.v
    b1, b2 = state.beta1, state.beta2
    square = np.square(grad)
    scaled = np.multiply(grad, 1 - b1)
    m *= b1
    m += scaled
    v *= b2
    v += np.multiply(square, 1 - b2, out=square)
    denom = np.sqrt(np.divide(v, 1 - b2**state.t, out=square), out=square)
    denom += state.epsilon
    update = np.divide(m, 1 - b1**state.t, out=scaled)
    update *= state.lr
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
        if self.epochs < 1:
            raise TrainingError("epochs must be >= 1")
        if self.role not in ("source", "target"):
            raise TrainingError(f"unknown phase role {self.role!r}")
        for name in ("base_lr", "task_lr"):
            rate = getattr(self, name)
            if not (math.isfinite(rate) and rate >= 0):
                raise TrainingError(f"{name} must be finite and >= 0, "
                                    f"got {rate!r}")


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


def run_schedule(schedule: TrainingSchedule,
                 corpora: Mapping[str, Sequence[Document]],
                 config: ModelConfig, objective: L.ObjectiveConfig,
                 store: ParameterStore,
                 checkpoint_dir=None,
                 ) -> tuple[ParameterStore, list[EpochRecord]]:
    """Run every phase in order, logging per-epoch loss components.

    Divergence (NaN loss) aborts with a TrainingDiverged carrying the last
    finite epoch's parameters; they are also written to `checkpoint_dir`
    when one is given.
    """
    records: list[EpochRecord] = []
    last_good = store.copy()
    state = AdamState()
    for phase_no, phase in enumerate(schedule.phases, start=1):
        if phase.corpus not in corpora:
            raise TrainingError(f"phase {phase_no}: unknown corpus "
                                f"{phase.corpus!r}")
        docs = list(corpora[phase.corpus])
        weights = effective_weights(phase, objective)
        rates = LearningRates(phase.base_lr, phase.task_lr)
        for epoch in range(1, phase.epochs + 1):
            sums = {"cl": 0.0, "rl": 0.0, "sl": 0.0, "total": 0.0}
            misses = 0
            pending: Gradients | None = None
            pending_count = 0
            for doc_no, doc in enumerate(docs):
                # Seeds RL pair sampling; a generator is built from it only
                # when a pair set is over budget.
                seed = [objective.pair_seed, phase_no, epoch, doc_no]
                result: list[L.DocumentLosses] = []

                def build(enc, scoring, scaffold, doc=doc, seed=seed):
                    result.append(L.document_objective(
                        doc, enc, scoring, scaffold, weights, config,
                        objective, seed))
                    return result

                try:
                    grads, total = compute_gradients(store, build)
                except (TrainingError, L.LossError) as exc:
                    if checkpoint_dir is not None:
                        path = Path(checkpoint_dir) / "last_good.ckpt"
                        path.parent.mkdir(parents=True, exist_ok=True)
                        last_good.save(path)
                    raise TrainingDiverged(
                        f"phase {phase_no} epoch {epoch} doc {doc.doc_id}: "
                        f"{exc}", last_good, records) from exc

                losses = result[0]
                sums["cl"] += losses.cl
                sums["rl"] += losses.rl
                sums["sl"] += losses.sl
                sums["total"] += total
                misses += losses.pruning_misses

                if pending is None:
                    pending = grads
                else:
                    pending = Gradients(pending.flat + grads.flat,
                                        pending.layout)
                pending_count += 1
                if (pending_count >= objective.grad_accumulation
                        or doc_no == len(docs) - 1):
                    optimizer_step(store, pending, rates, state)
                    pending, pending_count = None, 0
            records.append(EpochRecord(phase_no, epoch, sums["cl"], sums["rl"],
                                       sums["sl"], sums["total"], misses))
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
    them for small tensors).
    """
    grads, _ = compute_gradients(store, build_loss)
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
            numeric = (hi - lo) / (2 * epsilon)
            analytic = grads[name].reshape(-1)[c]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric),
                                                1e-8)
            worst = max(worst, err)
        per_tensor[name] = worst
    return GradCheckReport(per_tensor, threshold, epsilon)


def _loss_only(store: ParameterStore, build_loss: LossBuilder) -> float:
    return sum(objective.total for objective in build_loss(*store.groups))
