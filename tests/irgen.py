"""Random (but always well-defined) IR program generation for tests.

The generator produces programs that are *semantically safe by
construction* -- no division by zero, no invalid memory accesses, no
unbounded loops -- so that any behavioural difference between two
builds of the same program (pre/post register allocation, pre/post
scheduling, protected/unprotected) is a genuine transformation bug.
"""

from __future__ import annotations

import random

from repro.isa import Function, IRBuilder, Imm, Program


def _add_leaf(program: Program, rng: random.Random) -> None:
    """A two-parameter leaf function: a bounded loop over the scratch
    array (load, store), then a branch to one of two return blocks."""
    fn = Function("leaf", num_params=2)
    program.add_function(fn)
    b = IRBuilder(fn)
    b.start_block("entry")
    a = b.param(0)
    c = b.param(1)
    base = b.li(program.address_of("scratch"))
    acc = b.xor(a, c)
    i = b.li(0)
    b.jmp("leaf_loop")
    b.start_block("leaf_loop")
    address = b.add(base, b.shl(b.and_(acc, 31), 3))
    b.add(acc, b.load(address), dest=acc)
    b.mul(acc, Imm(rng.choice([3, 5, 7])), dest=acc)
    b.store(address, b.xor(acc, i))
    b.add(i, 1, dest=i)
    b.blt(i, rng.randrange(2, 5), "leaf_loop")
    b.start_block("leaf_tail")
    b.beq(b.and_(acc, 1), 0, "leaf_even")
    b.start_block("leaf_odd")
    b.ret(b.add(acc, a))
    b.start_block("leaf_even")
    b.ret(b.sub(acc, c))
    fn.renumber_pool()


def random_program(seed: int, num_blocks: int = 4,
                   instrs_per_block: int = 12, leaf: bool = False) -> Program:
    """A random structured program printing a final checksum.

    The CFG is a chain of blocks, each optionally guarded by a bounded
    loop; the instruction mix covers arithmetic, logical, shift,
    compare, memory, and move operations over a scratch global array.
    With ``leaf``, the program also has a function ``leaf`` (two
    parameters, several blocks, a loop, no calls) that every loop block
    calls once, and the first block always loops.
    """
    rng = random.Random(seed)
    program = Program()
    program.add_global("scratch", 32, [rng.randrange(1000) for _ in range(32)])
    fn = Function("main")
    program.add_function(fn)
    builder = IRBuilder(fn)
    builder.start_block("entry")
    program.assign_addresses()
    base = builder.li(program.address_of("scratch"))
    if leaf:
        _add_leaf(program, rng)

    # A pool of live registers to draw operands from.
    live = [builder.li(rng.randrange(-100, 100)) for _ in range(6)]

    def operand():
        if rng.random() < 0.25:
            return Imm(rng.randrange(-64, 64))
        return rng.choice(live)

    def add_result(reg) -> None:
        live.append(reg)
        if len(live) > 10:
            live.pop(0)

    for block_index in range(num_blocks):
        loop = rng.random() < 0.5 or (leaf and block_index == 0)
        call_at = -1
        if loop:
            counter = builder.li(0)
            loop_label = f"loop{block_index}"
            builder.jmp(loop_label)
            builder.start_block(loop_label)
            if leaf:
                call_at = rng.randrange(instrs_per_block)
        for position in range(instrs_per_block):
            if position == call_at:
                add_result(builder.call("leaf", [rng.choice(live),
                                                 operand()]))
            choice = rng.random()
            if choice < 0.35:
                op = rng.choice(
                    [builder.add, builder.sub, builder.mul]
                )
                add_result(op(rng.choice(live), operand()))
            elif choice < 0.55:
                op = rng.choice(
                    [builder.and_, builder.or_, builder.xor]
                )
                add_result(op(rng.choice(live), operand()))
            elif choice < 0.65:
                op = rng.choice([builder.shl, builder.shr, builder.sra])
                add_result(op(rng.choice(live), Imm(rng.randrange(0, 8))))
            elif choice < 0.75:
                op = rng.choice(
                    [builder.cmpeq, builder.cmplt, builder.cmpge]
                )
                add_result(op(rng.choice(live), operand()))
            elif choice < 0.85:
                # Safe load: index within the scratch array.
                index = builder.and_(rng.choice(live), 31)
                offset = builder.shl(index, 3)
                address = builder.add(base, offset)
                add_result(builder.load(address))
            elif choice < 0.95:
                index = builder.and_(rng.choice(live), 31)
                offset = builder.shl(index, 3)
                address = builder.add(base, offset)
                builder.store(address, rng.choice(live))
            else:
                # Safe signed division by a non-zero constant.
                add_result(builder.div(rng.choice(live),
                                       Imm(rng.choice([1, 2, 3, 5, 7]))))
        if loop:
            builder.add(counter, 1, dest=counter)
            builder.blt(counter, rng.randrange(2, 5), loop_label)
            builder.start_block(f"after{block_index}")
        else:
            next_label = f"blk{block_index}"
            builder.jmp(next_label)
            builder.start_block(next_label)
    # Fold every live register into one checksum and print it.
    checksum = builder.li(0)
    for reg in live:
        folded = builder.xor(checksum, reg)
        checksum = builder.add(folded, Imm(1), dest=checksum)
    builder.print_(checksum)
    # Also print a digest of the scratch array so stores matter.
    total = builder.li(0)
    index = builder.li(0)
    builder.jmp("digest")
    builder.start_block("digest")
    offset = builder.shl(index, 3)
    address = builder.add(base, offset)
    value = builder.load(address)
    mixed = builder.xor(total, value)
    builder.add(mixed, Imm(0), dest=total)
    builder.add(index, 1, dest=index)
    builder.blt(index, 32, "digest")
    builder.start_block("done")
    builder.print_(total)
    builder.ret()
    fn.renumber_pool()
    return program
