let () =
  Alcotest.run "msu4"
    [
      ("vec", Test_vec.suite);
      ("lit", Test_lit.suite);
      ("formula", Test_formula.suite);
      ("dimacs", Test_dimacs.suite);
      ("sat", Test_sat.suite);
      ("bdd", Test_bdd.suite);
      ("card", Test_card.suite);
      ("circuit", Test_circuit.suite);
      ("maxsat", Test_maxsat.suite);
      ("gen", Test_gen.suite);
      ("guard", Test_guard.suite);
      ("harness", Test_harness.suite);
      ("proofs", Test_proofs.suite);
      ("simplify", Test_simplify.suite);
      ("aiger", Test_aiger.suite);
      ("infra", Test_infra.suite);
      ("incremental", Test_incremental.suite);
      ("inprocess", Test_inprocess.suite);
      ("arena", Test_arena.suite);
      ("portfolio", Test_portfolio.suite);
      ("service", Test_service.suite);
      ("obs", Test_obs.suite);
      ("workers", Test_workers.suite);
      ("frame", Test_frame.suite);
    ]
