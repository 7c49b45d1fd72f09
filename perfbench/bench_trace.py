"""Span tracing of seqpolicy from outside: module functions are wrapped in place.

A wrapper records ``(name, start, end, parent)`` around the original call.
Spans stay in memory until the run writes them out at exit. Wrapping edits
module attributes only, never source, and :meth:`Tracer.uninstall` puts the
originals back.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

import seqpolicy.codec as codec
import seqpolicy.corpora as corpora
import seqpolicy.datastore as datastore
import seqpolicy.model.network as network
import seqpolicy.policy as policy
import seqpolicy.trainer as trainer
from seqpolicy.sequencer import ElementSource

# (owner, attribute, span name). An owner is the namespace the caller looks
# the name up in, so a function imported into two modules is listed twice.
TRACE_POINTS = (
    (corpora, "write_episodes", "datastore.write_episodes"),
    (datastore, "read_episodes", "datastore.read_episodes"),
    (datastore, "filter_episodes", "datastore.filter_episodes"),
    (datastore, "flatten_episode", "sequencer.flatten_episode"),
    (datastore.MixtureSampler, "draw", "datastore.draw"),
    (trainer, "pretrain", "trainer.train"),
    (trainer, "finetune", "trainer.train"),
    (trainer, "_draw_batch", "trainer.draw_batch"),
    (trainer, "apply_prompt", "sequencer.apply_prompt"),
    (trainer, "assemble_batch", "sequencer.assemble_batch"),
    (trainer, "loss_and_grads", "model.loss_and_grads"),
    (trainer, "optimizer_step", "trainer.optimizer_step"),
    (network, "embed_batch", "model.embed_fwd"),
    (network, "embed_bwd", "model.embed_bwd"),
    (network, "patch_embed_fwd", "model.patch_embed_fwd"),
    (network, "patch_embed_bwd", "model.patch_embed_bwd"),
    (network, "hidden_fwd", "model.hidden_fwd"),
    (network, "hidden_bwd", "model.hidden_bwd"),
    (network, "_attention_fwd", "model.attention_fwd"),
    (network, "_attention_bwd", "model.attention_bwd"),
    (network, "_ffn_fwd", "model.ffn_fwd"),
    (network, "_ffn_bwd", "model.ffn_bwd"),
    (network, "gelu_fwd", "model.gelu_fwd"),
    (network, "gelu_bwd", "model.gelu_bwd"),
    (policy, "rollout", "policy.rollout"),
    (policy, "forward_logits", "model.forward_logits"),
    (policy, "sample_token", "policy.sample_token"),
    (policy, "flatten_episode", "sequencer.flatten_episode"),
    (policy, "concat_sequences", "sequencer.concat_sequences"),
    (policy, "assemble_batch", "sequencer.assemble_batch"),
    (codec, "encode_text", "codec.encode"),
    (codec, "encode_discrete", "codec.encode"),
    (codec, "encode_continuous", "codec.encode"),
    (codec, "image_to_patches", "codec.encode"),
    (codec, "decode_discrete", "codec.decode"),
    (codec, "decode_continuous", "codec.decode"),
)


def _batch_counts(tracer, batch) -> None:
    tracer.count("positions", batch.tokens.size)
    tracer.count("real", int((batch.sources != ElementSource.PAD).sum()))
    tracer.count("loss", int(batch.shifted_mask().sum()))


# Counts taken from the positional arguments of a traced call, by span name.
COUNT_HOOKS = {
    "model.loss_and_grads": lambda tracer, args: _batch_counts(tracer, args[2]),
    "model.forward_logits": lambda tracer, args: tracer.count("forward_ctx_len", args[2].seq_len),
}


class Tracer:
    """Records nested spans and per-phase counts while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float) -> None:
        """Add to a counter of the phase (root span) now running."""
        phase = self.spans[self._stack[0]][0] if self._stack else "none"
        self.counts[phase][key] += value

    def wrap(self, original, name: str):
        """``original`` recorded as span ``name``, with its count hook if any."""
        hook = COUNT_HOOKS.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(self, args)
            index = self.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def install(self) -> None:
        for owner, attr, name in TRACE_POINTS:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, f)
