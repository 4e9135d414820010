from hypothesis import settings

# CI runs derandomized (``--hypothesis-profile=ci``) so a failure there
# repeats on rerun; local runs keep drawing fresh examples.
settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
