(* Mini_xml: parser/printer unit cases and roundtrip properties. *)

open Testutil
module X = Mini_xml

let test_basic_parse () =
  let e = X.of_string "<a x=\"1\"><b>text</b><c/></a>" in
  Alcotest.(check string) "root tag" "a" e.X.tag;
  Alcotest.(check (option string)) "attr" (Some "1") (X.attr e "x");
  Alcotest.(check string) "child text" "text" (X.text_content (X.child_exn e "b"));
  Alcotest.(check bool) "self-closing child" true (X.child e "c" <> None)

let test_entities () =
  let e = X.of_string "<a t=\"&lt;&amp;&quot;\">&gt;&apos;&#65;&#x42;</a>" in
  Alcotest.(check (option string)) "attr entities" (Some "<&\"") (X.attr e "t");
  Alcotest.(check string) "text entities" ">'AB" (X.text_content e)

let test_comments_and_decl () =
  let e = X.of_string "<?xml version=\"1.0\"?><!-- hi --><a><!-- in --><b/></a><!-- post -->" in
  Alcotest.(check string) "root" "a" e.X.tag;
  Alcotest.(check int) "comment skipped" 1 (List.length e.X.children)

let test_mixed_content () =
  let e = X.of_string "<a>one<b/>two</a>" in
  Alcotest.(check int) "three children" 3 (List.length e.X.children)

let test_single_quotes () =
  let e = X.of_string "<a k='v'/>" in
  Alcotest.(check (option string)) "single-quoted attr" (Some "v") (X.attr e "k")

let malformed =
  [
    ""; "<a>"; "<a></b>"; "<a attr></a>"; "< a/>"; "<a 1bad=\"x\"/>";
    "<a k=\"v/>"; "<a/><b/>"; "text only"; "<a>&unknown;</a>"; "<a k=v/>";
    "<!-- unterminated"; "<a><b></a></b>";
  ]

let test_malformed_rejected () =
  List.iter
    (fun s ->
      match X.of_string s with
      | exception X.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted %S" s)
    malformed

let test_query_helpers () =
  let e = X.of_string "<a><b n=\"1\"/><b n=\"2\"/><c>7</c></a>" in
  Alcotest.(check int) "children_named" 2 (List.length (X.children_named e "b"));
  Alcotest.(check int) "int_attr" 2 (X.int_attr_exn (List.nth (X.children_named e "b") 1) "n");
  Alcotest.(check int) "int_content" 7 (X.int_content_exn (X.child_exn e "c"));
  Alcotest.check_raises "missing child"
    (X.Parse_error "missing element <zz> under <a>") (fun () ->
      ignore (X.child_exn e "zz"));
  match X.int_content_exn (X.child_exn e "b") with
  | exception X.Parse_error _ -> ()
  | _ -> Alcotest.fail "empty content parsed as int"

let test_print_escaping () =
  let e = X.elt "a" ~attrs:[ ("k", "<\">") ] [ X.text "a<b&c" ] in
  let s = X.to_string ~indent:false e in
  Alcotest.(check string) "escaped output" "<a k=\"&lt;&quot;&gt;\">a&lt;b&amp;c</a>" s;
  Alcotest.(check bool) "reparses" true (X.of_string s = e)

let test_indent_output_reparses () =
  let e =
    X.elt "root"
      [ X.node (X.elt "x" ~attrs:[ ("a", "1") ] [ X.leaf "y" "v"; X.node (X.elt "z" []) ]) ]
  in
  let printed = X.to_string ~indent:true e in
  let reparsed = X.of_string printed in
  Alcotest.(check string) "structure preserved"
    (X.to_string ~indent:false e)
    (X.to_string ~indent:false reparsed)

(* Random element trees with safe names and printable content. *)
let gen_element =
  let open QCheck.Gen in
  let name = oneofl [ "alpha"; "beta"; "gamma"; "delta"; "k1"; "k2" ] in
  let content = small_string ~gen:(char_range 'a' 'z') in
  let rec element depth =
    let* tag = name in
    let* attrs = list_size (int_bound 2) (pair name content) in
    let attrs =
      (* unique attribute names *)
      List.mapi (fun i (k, v) -> (Printf.sprintf "%s%d" k i, v)) attrs
    in
    (* No mixed content: indentation does not preserve whitespace inside
       mixed text/element children (as in real XML pretty-printers). *)
    let* children =
      if depth = 0 then return []
      else
        frequency
          [
            (1, map (fun s -> [ X.Text ("t" ^ s) ]) content);
            (2, list_size (int_bound 3) (map X.node (element (depth - 1))));
          ]
    in
    return (X.elt tag ~attrs children)
  in
  element 3

let prop_roundtrip_compact =
  qcheck_case "compact print/parse roundtrip" (QCheck.make gen_element)
    (fun e ->
      let s = X.to_string ~indent:false e in
      X.to_string ~indent:false (X.of_string s) = s)

let prop_roundtrip_indented =
  qcheck_case "indented print reparses to same structure" (QCheck.make gen_element)
    (fun e ->
      let reparsed = X.of_string (X.to_string ~indent:true e) in
      X.to_string ~indent:false reparsed = X.to_string ~indent:false e)

(* Renders share one buffer: threads rendering at once, preempted in
   the middle of a render, must each still get their own tree's bytes. *)
let test_concurrent_renders () =
  let tree i =
    X.elt "domain" ~attrs:[ ("id", string_of_int i) ]
      (List.init 3000 (fun k -> X.leaf "k" (Printf.sprintf "<%d&%d>" i k)))
  in
  let expected = Array.init 4 (fun i -> X.to_string ~indent:(i mod 2 = 0) (tree i)) in
  let bad = Atomic.make 0 in
  let threads =
    List.init 4 (fun i ->
        Thread.create
          (fun () ->
            for _ = 1 to 40 do
              if X.to_string ~indent:(i mod 2 = 0) (tree i) <> expected.(i) then Atomic.incr bad
            done)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "renders that came out wrong" 0 (Atomic.get bad)

let () =
  Alcotest.run "mini_xml"
    [
      ( "parsing",
        [
          quick "elements, attrs, text" test_basic_parse;
          quick "entities" test_entities;
          quick "comments and declaration" test_comments_and_decl;
          quick "mixed content" test_mixed_content;
          quick "single-quoted attributes" test_single_quotes;
        ] );
      ("errors", [ quick "malformed documents rejected" test_malformed_rejected ]);
      ( "queries",
        [ quick "child/attr/int helpers" test_query_helpers ] );
      ( "printing",
        [
          quick "escaping" test_print_escaping;
          quick "indentation roundtrip" test_indent_output_reparses;
          quick "concurrent renders" test_concurrent_renders;
        ] );
      ("properties", [ prop_roundtrip_compact; prop_roundtrip_indented ]);
    ]
