"""Dataset substrate: seeded synthetic stand-ins for the paper's 13
real-world datasets (Table 3), plus the injected-mislabel variants.

There is no network access, so each dataset is generated with a
deterministic mechanism that reproduces the paper's schema, task,
class balance and error profile; see DESIGN.md §2 for the substitution
argument and each module's docstring for the mechanism.
"""
