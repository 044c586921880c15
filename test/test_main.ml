let () =
  Alcotest.run "duoquest"
    [
      ("value", Test_value.suite);
      ("schema", Test_schema.suite);
      ("table+db+index", Test_table.suite);
      ("sql front", Test_sql.suite);
      ("executor", Test_executor.suite);
      ("executor vs reference", Test_executor_ref.suite);
      ("planner", Test_planner.suite);
      ("nl", Test_nl.suite);
      ("guidance", Test_guidance.suite);
      ("tsq", Test_tsq.suite);
      ("steiner+joinpath", Test_steiner.suite);
      ("semantics", Test_semantics.suite);
      ("duolint", Test_lint.suite);
      ("duosem", Test_sem.suite);
      ("verify", Test_verify.suite);
      ("frontier", Test_frontier.suite);
      ("duopar pool", Test_par.suite);
      ("enumerate", Test_enumerate.suite);
      ("rng", Test_rng.suite);
      ("pbe", Test_pbe.suite);
      ("describe", Test_describe.suite);
      ("csv", Test_csv.suite);
      ("feedback", Test_feedback.suite);
      ("spider workload", Test_spider.suite);
      ("simulation pipeline", Test_simulation.suite);
      ("synthesis", Test_synth.suite);
      ("refinement", Test_refine.suite);
      ("mas workload", Test_mas.suite);
      ("duoserve", Test_serve.suite);
      ("relation cache", Test_session.suite);
      ("duocheck", Test_check.suite);
      ("user simulation", Test_usersim.suite);
    ]
