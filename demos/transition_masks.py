"""Show which composite (electron, qubit) transitions each behavior allows.

The composite transition matrix couples wall states (columns, ordered
e'=1 block then e'=2 block, slit position ascending within each block) to
screen states (rows, ordered the same way for e).  '#' marks an allowed
transition, '.' a disallowed one.  The structure does not depend on the
screen position, so every row within a block repeats; what matters is
which slit halves feed which screen qubit state:

* none     - both slits feed e=1: interference possible.
* remembers - the upper slit feeds e=1, the lower slit e=2; no screen
              state hears from both slits, so no interference.
* forgets  - both slits feed e=1 again: interference returns.
"""

import doubleslit as ds

N_EXPORT = 8

for behavior in ds.QubitBehavior:
    mask = ds.build_mask(behavior, N_EXPORT)
    print(ds.render_mask(mask))
    both_slits_meet = ds.screen_state(behavior, "lower") == ds.screen_state(behavior, "upper")
    print(f"interference possible: {both_slits_meet}\n")
