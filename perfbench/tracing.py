"""Span tracer that wraps the program's module bindings from outside.

A binding is a module attribute named ``module.attr``, such as
``freicheck.verify.mat_vec``: the name a caller looks up at call time.
Wrapping the attribute in the calling module catches exactly the calls made
through it.  Each call becomes a span (group, parent, start, end, info), kept
in memory and written out when the run ends.  A binding that no longer exists
is listed as absent and its metrics read zero; the tracer does not fail on it.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (binding, group); the layer is the group's first component.
BINDINGS = (
    ("freicheck.cli.main", "cli.main"),
    ("freicheck.cli.read_matrix", "matio.read"),
    ("freicheck.cli.write_matrix", "matio.write"),
    ("freicheck.matio.parse_matrix", "matio.parse"),
    ("freicheck.matio.format_matrix", "matio.format"),
    ("freicheck.verify.verify", "verify.call"),
    ("freicheck.cli.verify", "verify.call"),
    ("freicheck.verify.freivalds_iteration", "verify.round"),
    ("freicheck.analysis.freivalds_iteration", "verify.trial"),
    ("freicheck.verify.mat_vec", "matrix.mat_vec"),
    ("freicheck.matrix.matmul", "matrix.matmul"),
    ("freicheck.analysis.matmul", "matrix.matmul"),
    ("freicheck.matrix.mats_equal", "matrix.compare"),
    ("freicheck.analysis.mats_equal", "matrix.compare"),
    ("freicheck.analysis.mat_sub", "matrix.sub"),
    ("freicheck.verify.sample_vector", "sampling.sample"),
    ("freicheck.cli.parse_dist", "sampling.dist"),
    ("freicheck.sampling.uniform_binary", "sampling.dist"),
    ("freicheck.sampling.bernoulli", "sampling.dist"),
    ("freicheck.sampling.field_uniform", "sampling.dist"),
    ("freicheck.sampling.uniform_support", "sampling.dist"),
    ("freicheck.analysis.analyze_instance", "analysis.analyze"),
    ("freicheck.analysis.difference_profile", "analysis.profile"),
    ("freicheck.cli.difference_profile", "analysis.profile"),
    ("freicheck.analysis.exact_false_accept_probability", "analysis.exact"),
    ("freicheck.analysis.empirical_false_accept_rate", "analysis.empirical"),
    ("freicheck.cli.generate_instance", "analysis.generate"),
)


def _info(group, args, out):
    """Per-call detail some metrics need: text size, operand shape, verdict."""
    try:
        if group == "matio.parse":
            return len(args[0])
        if group == "matrix.mat_vec":
            return (args[0].rows, args[0].cols)
        if group == "verify.call":
            return bool(out.accepted)
    except (AttributeError, IndexError, TypeError):
        pass
    return None


class Tracer:
    def __init__(self) -> None:
        self.groups: list[str] = []
        self.spans: list[list] = []  # [group index, parent id, start, end, info]
        self._stack: list[int] = []
        self._wrapped = []  # (module, attr, original, wrapper)
        self.absent: list[str] = []
        for binding, group in BINDINGS:
            modname, attr = binding.rsplit(".", 1)
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                mod = None
            orig = getattr(mod, attr, None)
            if not callable(orig):
                self.absent.append(binding)
                continue
            gid = self._gid(group)
            self._wrapped.append((mod, attr, orig, self._wrap(gid, group, orig)))

    def _gid(self, group: str) -> int:
        if group not in self.groups:
            self.groups.append(group)
        return self.groups.index(group)

    def _wrap(self, gid, group, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [gid, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(span)
            stack.append(sid)
            out = None
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                span[3] = clock()
                stack.pop()
                span[4] = _info(group, args, out)

        return traced

    def install(self) -> None:
        for mod, attr, _, wrapper in self._wrapped:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig, _ in self._wrapped:
            setattr(mod, attr, orig)

    def call(self, label: str, fn):
        """Run ``fn`` as a root span named ``label``: one span per benchmark op."""
        return self._wrap(self._gid(label), label, fn)()

    def write(self, path) -> None:
        root = []
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (gid, parent, t0, t1, _) in enumerate(self.spans):
                root.append(sid if parent < 0 else root[parent])
                fh.write(
                    json.dumps(
                        {"id": sid, "name": self.groups[gid], "parent": parent,
                         "op": root[sid], "start": t0, "end": t1}
                    )
                    + "\n"
                )

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer figures, per traced round, from the recorded spans."""
        groups, spans = self.groups, self.spans
        child = [0.0] * len(spans)
        for gid, parent, t0, t1, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        dur = defaultdict(float)  # outermost spans of a group, so nesting is not double counted
        self_g = defaultdict(float)  # per group
        self_s = defaultdict(float)  # per layer
        count = defaultdict(int)
        for sid, (gid, parent, t0, t1, _) in enumerate(spans):
            g = groups[gid]
            count[g] += 1
            own = (t1 - t0) - child[sid]
            self_g[g] += own
            self_s[g.split(".")[0]] += own
            if parent < 0 or spans[parent][0] != gid:
                dur[g] += t1 - t0

        parse_bytes = sum(s[4] or 0 for s in spans if groups[s[0]] == "matio.parse")
        macs = 0
        nbytes = 0
        for s in spans:
            if groups[s[0]] == "matrix.mat_vec" and s[4]:
                r, c = s[4]
                macs += r * c
                nbytes += 8 * (r * c + r + c)  # int64 operand, vector and result
        calls = [s for s in spans if groups[s[0]] == "verify.call"]
        rejects = {i for i, s in enumerate(spans) if groups[s[0]] == "verify.call" and s[4] is False}
        vrounds = [s for s in spans if groups[s[0]] == "verify.round"]
        reject_rounds = sum(1 for s in vrounds if s[1] in rejects)

        def ratio(x, y):
            return x / y if y else 0.0

        per = 1.0 / rounds
        return {
            "matio.parse_s": dur["matio.parse"] * per,
            "matio.parse_mb_per_s": ratio(parse_bytes / 1e6, dur["matio.parse"]),
            "matio.read_io_s": self_g["matio.read"] * per,
            "matio.format_s": dur["matio.format"] * per,
            "matio.write_io_s": self_g["matio.write"] * per,
            "matrix.mat_vec_calls": count["matrix.mat_vec"] * per,
            "matrix.mat_vec_s": dur["matrix.mat_vec"] * per,
            "matrix.bytes_computed": nbytes * per,
            "matrix.ops_per_byte": ratio(macs, nbytes),
            "matrix.gmac_per_s": ratio(macs / 1e9, dur["matrix.mat_vec"]),
            "matrix.matmul_s": dur["matrix.matmul"] * per,
            "sampling.sample_vector_s": dur["sampling.sample"] * per,
            "sampling.dist_build_s": dur["sampling.dist"] * per,
            "verify.calls": len(calls) * per,
            "verify.rounds": len(vrounds) * per,
            "verify.rounds_per_reject": ratio(reject_rounds, len(rejects)),
            "verify.self_s": self_s["verify"] * per,
            "analysis.profile_s": dur["analysis.profile"] * per,
            "analysis.exact_s": dur["analysis.exact"] * per,
            "analysis.empirical_s": dur["analysis.empirical"] * per,
            "analysis.self_s": self_s["analysis"] * per,
            "cli.self_s": self_s["cli"] * per,
            "trace.spans_per_round": len(spans) * per,
            "trace.absent_bindings": len(self.absent),
        }
