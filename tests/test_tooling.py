def test_hypothesis_can_report_a_failing_example():
    # to print a falsifying example, hypothesis imports this module and libcst;
    # if that import raises under the suite's warning filters, pytest aborts
    # with INTERNALERROR instead of reporting the failure
    import hypothesis.extra._patching  # noqa: F401
