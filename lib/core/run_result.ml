type t = {
  query : Pax_xpath.Query.t;
  answers : Pax_xml.Tree.node list;
  answer_ids : int list;
  report : Pax_dist.Cluster.report;
  trace : Pax_dist.Trace.t;
}

let make ~trace ~query ~answers ~report () =
  let answers =
    List.sort_uniq
      (fun (a : Pax_xml.Tree.node) (b : Pax_xml.Tree.node) -> compare a.id b.id)
      answers
  in
  {
    query;
    answers;
    answer_ids = List.map (fun (n : Pax_xml.Tree.node) -> n.Pax_xml.Tree.id) answers;
    report;
    trace;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>query: %a@,answers: %d node(s)@,%a@]"
    Pax_xpath.Query.pp t.query (List.length t.answers)
    Pax_dist.Cluster.pp_report t.report
