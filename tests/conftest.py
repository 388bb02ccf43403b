from hypothesis import settings

# Property tests replay the same examples on every run and have no
# per-example deadline, so a slow or loaded machine cannot fail them.
settings.register_profile("kamkit", deadline=None, derandomize=True)
settings.load_profile("kamkit")
