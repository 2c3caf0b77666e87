"""Stochastic trace generation.

The generator *executes* a synthetic :class:`~repro.program.program.Program`:
it walks the code image from the entry point, asks each conditional branch's
behaviour model for its dynamic outcome, follows calls and returns through a
call stack, and resolves indirect calls through their target-selection
models.  The result is a correct-path :class:`~repro.trace.event.Trace` —
exactly what ATOM instrumentation gave the paper's authors.

Determinism: a given ``(program, seed, n_instructions)`` always produces the
same trace (behaviour models are reset at the start of each run).
"""

from __future__ import annotations

import random

from repro.errors import TraceError
from repro.isa import INSTRUCTION_SIZE, InstrKind
from repro.program.behaviour import IndirectBehaviour
from repro.program.program import Program
from repro.trace.event import BlockRecord, RecordInterner, Trace

#: Version of the generation algorithm.  Bump whenever a change here (or
#: in the behaviour models / workload definitions) can alter the trace a
#: given ``(program, seed, n_instructions)`` produces: the artifact cache
#: (:mod:`repro.core.artifacts`) keys cached programs and traces on this,
#: so stale on-disk artifacts are invalidated instead of silently reused.
GENERATOR_VERSION = 1

#: Bits of global outcome history exposed to CorrelatedBehaviour models.
_HISTORY_BITS = 16
_HISTORY_MASK = (1 << _HISTORY_BITS) - 1

#: Call stack depth at which we assume runaway recursion in the model.
_MAX_CALL_DEPTH = 1024


class TraceGenerator:
    """Reusable generator bound to one program."""

    def __init__(self, program: Program) -> None:
        self.program = program

    def generate(self, n_instructions: int, seed: int = 0) -> Trace:
        """Generate at least *n_instructions* correct-path instructions.

        Generation stops at the end of the block that crosses the
        threshold, so the trace may slightly exceed ``n_instructions``.
        """
        if n_instructions < 1:
            raise TraceError(f"n_instructions must be >= 1, got {n_instructions}")
        program = self.program
        program.reset_behaviours()
        rng = random.Random(seed)
        image = program.image
        kinds = image.kinds_list
        targets = image.targets_list
        behaviour_ids = image.behaviours_list
        next_ctrl = image.next_ctrl_list
        behaviours = program.behaviours
        indirect_targets = program.indirect_targets
        base = image.base
        n_image = image.n_instructions
        entry = program.entry
        cond = int(InstrKind.COND_BRANCH)
        jump = int(InstrKind.JUMP)
        call = int(InstrKind.CALL)
        ret = int(InstrKind.RETURN)
        icall = int(InstrKind.INDIRECT_CALL)
        plain = int(InstrKind.PLAIN)

        interned = RecordInterner()
        records: list[BlockRecord] = []
        stack: list[int] = []
        history = 0
        emitted = 0
        pc = entry
        while emitted < n_instructions:
            idx = (pc - base) // INSTRUCTION_SIZE
            if not 0 <= idx < n_image or (pc - base) % INSTRUCTION_SIZE:
                raise TraceError(f"execution left the image at {pc:#x}")
            ctrl = next_ctrl[idx]
            if ctrl >= n_image:
                # Straight line to the end of the image: emit and wrap to
                # the entry point (models the driver restarting the
                # workload; only reachable through padding at the tail).
                length = n_image - idx
                records.append(interned[(pc, length, plain, False, entry)])
                emitted += length
                pc = entry
                continue
            length = ctrl - idx + 1
            kind = kinds[ctrl]
            ctrl_addr = base + ctrl * INSTRUCTION_SIZE
            fall = ctrl_addr + INSTRUCTION_SIZE
            taken = True
            if kind == cond:
                behaviour = behaviours[behaviour_ids[ctrl]]
                taken = behaviour.next_outcome(rng, history)
                history = ((history << 1) | taken) & _HISTORY_MASK
                next_pc = targets[ctrl] if taken else fall
            elif kind == jump:
                next_pc = targets[ctrl]
            elif kind == call:
                stack.append(fall)
                if len(stack) > _MAX_CALL_DEPTH:
                    raise TraceError(
                        f"call depth exceeded {_MAX_CALL_DEPTH} at {ctrl_addr:#x}"
                        " (recursive synthetic call graph?)"
                    )
                next_pc = targets[ctrl]
            elif kind == ret:
                # An empty stack means the entry function returned: restart.
                next_pc = stack.pop() if stack else entry
            elif kind == icall:
                behaviour = behaviours[behaviour_ids[ctrl]]
                if not isinstance(behaviour, IndirectBehaviour):
                    raise TraceError(
                        f"indirect call at {ctrl_addr:#x} bound to "
                        f"{type(behaviour).__name__}"
                    )
                stack.append(fall)
                if len(stack) > _MAX_CALL_DEPTH:
                    raise TraceError(
                        f"call depth exceeded {_MAX_CALL_DEPTH} at {ctrl_addr:#x}"
                    )
                choice = behaviour.next_target_index(rng)
                next_pc = indirect_targets[ctrl_addr][choice]
            else:  # pragma: no cover - image construction forbids this
                raise TraceError(f"unknown instruction kind {kind} at {ctrl_addr:#x}")
            records.append(interned[(pc, length, kind, taken, next_pc)])
            emitted += length
            pc = next_pc
        return Trace(program_name=program.name, records=records, seed=seed)


def generate_trace(program: Program, n_instructions: int, seed: int = 0) -> Trace:
    """Convenience wrapper: one-shot trace generation."""
    return TraceGenerator(program).generate(n_instructions, seed=seed)
