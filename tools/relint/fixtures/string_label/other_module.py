# relint: path=src/repro/core/relaxation.py
"""Same nesting, but not a designated hot kernel module: clean."""


def search(alphabet, masks):
    out = []
    for mask in masks:
        for _ in range(2):
            out.append(alphabet.members(mask))
    return out
