#!/usr/bin/env python3
"""Attributes sampler.c output to functions and source lines.

    attribute.py PREFIX BINARY [--top N] [--layer NAME=REGEX ...]

reads PREFIX.samples and PREFIX.maps and prints, as shares of all
samples:

- self time by the innermost inlined function at the interrupted
  instruction that is not from the standard library (`core`, `alloc`,
  `std`, primitive methods), and by its source line;
- inclusive time by function: a sample counts toward every function
  outside the standard library that appears in the inline chain of any
  frame of its stack, once;
- with --layer, a table where each sample counts toward the first layer
  whose regular expression matches a function in the inline chain of
  its interrupted instruction (the rest go to "everything else").

Addresses are mapped to the binary's link-time addresses through the
load bias, which is the start of the binary's offset-0 mapping minus
the page-aligned virtual address of its offset-0 PT_LOAD segment
(0 for a position-independent executable). Subtracting a mapping's own
start and adding its file offset is wrong: the text segment's virtual
address is its file offset plus a page, so every sample would resolve
one page early, into unrelated functions.
"""

import argparse
import collections
import os
import re
import subprocess
import sys


def load_bias(maps_path, binary):
    """(bias, [(lo, hi)]) for the binary's mappings in the sampled process."""
    real = os.path.realpath(binary)
    ranges, base = [], None
    with open(maps_path) as f:
        for line in f:
            parts = line.split()
            if len(parts) < 6 or os.path.realpath(parts[5]) != real:
                continue
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            ranges.append((lo, hi))
            if int(parts[2], 16) == 0:
                base = lo if base is None else min(base, lo)
    if base is None:
        sys.exit(f"attribute.py: no offset-0 mapping of {real} in {maps_path}")
    first_vaddr = None
    headers = subprocess.run(["readelf", "-lW", binary], capture_output=True,
                             text=True, check=True).stdout
    for line in headers.splitlines():
        fields = line.split()
        if fields[:1] == ["LOAD"] and int(fields[1], 16) == 0:
            first_vaddr = int(fields[2], 16) & ~0xFFF
            break
    if first_vaddr is None:
        sys.exit(f"attribute.py: {binary} has no offset-0 LOAD segment")
    return base - first_vaddr, ranges


def symbolize(binary, addrs):
    """{addr: [(function, file:line), ...]} innermost first."""
    out = {}
    if not addrs:
        return out
    order = sorted(addrs)
    text = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
        input="\n".join(f"{a:x}" for a in order), capture_output=True,
        text=True, check=True).stdout
    cur, lines = None, []
    for line in text.splitlines():
        if re.fullmatch(r"0x[0-9a-f]+", line):
            cur = int(line, 16)
            out[cur] = []
            lines = []
            continue
        lines.append(line)
        if len(lines) == 2:
            func, loc = lines
            # Drop the hash suffix and the argument-free generic noise.
            func = re.sub(r"::h[0-9a-f]{16}$", "", func)
            out[cur].append((func, re.sub(r" \(discriminator \d+\)", "", loc)))
            lines = []
    return out


STD = re.compile(r"^<?&?(dyn )?(core|alloc|std)::|^<[^>]* as (core|alloc|std)::"
                 r"|^<(u8|u16|u32|u64|u128|usize|i8|i16|i32|i64|isize|bool"
                 r"|f32|f64|\[T\]|\*const T|\*mut T)>::|^\[outside")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("prefix")
    ap.add_argument("binary")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--layer", action="append", default=[],
                    metavar="NAME=REGEX")
    args = ap.parse_args()

    bias, ranges = load_bias(args.prefix + ".maps", args.binary)
    inside = lambda a: any(lo <= a < hi for lo, hi in ranges)
    samples = []
    with open(args.prefix + ".samples") as f:
        for line in f:
            samples.append([int(x, 16) for x in line.split()])
    if not samples:
        sys.exit("attribute.py: no samples")

    # A return address points past its call; step back into the call so
    # the line and inline chain are the caller's.
    def link_addr(a, leaf):
        return a - bias - (0 if leaf else 1)

    wanted = set()
    for s in samples:
        for k, a in enumerate(s):
            if inside(a):
                wanted.add(link_addr(a, k == 0))
    chains = symbolize(args.binary, wanted)

    def chain(a, leaf):
        if not inside(a):
            return [("[outside the binary]", "??:0")]
        return chains.get(link_addr(a, leaf)) or [("??", "??:0")]

    total = len(samples)
    self_fn, self_line, incl = (collections.Counter() for _ in range(3))
    layers = [(n, re.compile(r)) for n, r in (l.split("=", 1) for l in args.layer)]
    layer_counts = collections.Counter()
    ours = lambda func: not STD.search(func)
    for s in samples:
        leaf = chain(s[0], True)
        own = next((fl for fl in leaf if ours(fl[0])), leaf[-1])
        self_fn[own[0]] += 1
        self_line[f"{own[0]} @ {own[1]}"] += 1
        seen = set()
        for k, a in enumerate(s):
            seen.update(func for func, _ in chain(a, k == 0) if ours(func))
        incl.update(seen)
        if layers:
            names = [func for func, _ in leaf]
            hit = next((n for n, r in layers if any(r.search(f) for f in names)),
                       "everything else")
            layer_counts[hit] += 1

    pct = lambda c: f"{100.0 * c / total:5.1f}%"
    print(f"{total} samples, load bias {bias:#x}")
    for title, counter in [("self, by function", self_fn),
                           ("self, by line", self_line),
                           ("inclusive, by function", incl)]:
        print(f"\n## {title}")
        for name, c in counter.most_common(args.top):
            print(f"{pct(c)}  {name}")
    if layers:
        print("\n## layers (first match in the leaf's inline chain)")
        for name in [n for n, _ in layers] + ["everything else"]:
            print(f"{pct(layer_counts[name])}  {name}")


if __name__ == "__main__":
    main()
