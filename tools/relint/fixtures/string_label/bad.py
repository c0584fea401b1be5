# relint: path=src/repro/core/speedup.py
"""Mask-to-name surface calls inside nested loops: 3 hits."""


def render_all(alphabet, masks, configs):
    out = []
    for mask in masks:
        for _ in range(2):
            out.append(alphabet.members(mask))  # violation: depth 2
    # Comprehension with two generators counts as depth 2 as well.
    out += [alphabet.config(c) for m in masks for c in configs]  # violation
    # Derived-label naming is a name surface too.
    return out + [alphabet.mask_name(m) for m in masks for _ in configs]  # violation
