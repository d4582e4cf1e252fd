(* Mini_xml's index-scanning parser against its byte-at-a-time reference
   (Xml_reference): on generated documents, every truncation of each and
   one random byte mutation of each, both parsers must build the same
   tree or both reject the input with the same message.  The benchmark's
   read-small definitions must decode to the configs they were printed
   from. *)

open Testutil
module X = Mini_xml

(* A parser's answer: the tree, or the rejection message.  The reference
   raises [Invalid_argument] from [Char.chr] on a negative numeric
   entity such as "&#-5;"; the new parser rejects it as unsupported. *)
let outcome parse s =
  match parse s with
  | e -> Ok e
  | exception X.Parse_error m -> Error m
  | exception Invalid_argument _ -> Error "invalid"

let agree s =
  match (outcome X.of_string s, outcome Xml_reference.of_string s) with
  | Ok a, Ok b -> a = b
  | Error _, Error "invalid" -> true
  | Error a, Error b -> a = b
  | Ok _, Error _ | Error _, Ok _ -> false

(* Document text, built from fragments that exercise every branch of the
   grammar: entities (named and numeric) in text and attribute values,
   both quote styles, comments, declarations, mixed content and
   whitespace-only runs. *)
let gen_doc =
  let open QCheck.Gen in
  let ws = oneofl [ ""; ""; " "; "\n  "; "\t"; "\r\n" ] in
  let name = oneofl [ "a"; "b"; "disk"; "x-y"; "n.s:k"; "_q"; "v1" ] in
  let entity = oneofl [ "&lt;"; "&gt;"; "&amp;"; "&quot;"; "&apos;"; "&#65;"; "&#x42;"; "&#32;"; "&#10;"; "&#x7f;"; "&#0000065;" ] in
  let chunk extra =
    frequency
      [ (4, string_size ~gen:(char_range 'a' 'z') (int_bound 6)); (2, entity); (1, ws); (1, oneofl extra) ]
  in
  let run extra = map (String.concat "") (list_size (int_bound 4) (chunk extra)) in
  let comment = map (fun s -> "<!--" ^ s ^ "-->") (run [ "-"; "<"; ">" ]) in
  let attr =
    let* k = name and* q = oneofl [ "\""; "'" ] and* w1 = ws and* w2 = ws and* w3 = ws in
    let* v = run [ (if q = "\"" then "'" else "\""); "<"; ">" ] in
    return (w1 ^ " " ^ k ^ w2 ^ "=" ^ w3 ^ q ^ v ^ q)
  in
  let rec element depth =
    let* tag = name and* attrs = list_size (int_bound 3) attr and* w = ws in
    let open_tag = "<" ^ tag ^ String.concat "" attrs ^ w in
    if depth = 0 then oneofl [ open_tag ^ "/>"; open_tag ^ "></" ^ tag ^ ">" ]
    else
      let child =
        frequency [ (3, element (depth - 1)); (3, run [ ">" ]); (1, comment); (2, ws) ]
      in
      let* children = list_size (int_bound 5) child and* w' = ws in
      return (open_tag ^ ">" ^ String.concat "" children ^ "</" ^ tag ^ w' ^ ">")
  in
  let misc = frequency [ (2, ws); (1, comment) ] in
  let* decl = oneofl [ ""; "<?xml version=\"1.0\"?>"; "<?pi x?>\n" ] in
  let* pre = list_size (int_bound 2) misc and* root = element 3 in
  let* post = list_size (int_bound 2) misc in
  return (decl ^ String.concat "" pre ^ root ^ String.concat "" post)

(* Mutation bytes lean towards the grammar's own punctuation. *)
let gen_mutated =
  let open QCheck.Gen in
  let* doc = gen_doc in
  let* pos = int_bound (max 0 (String.length doc - 1)) in
  let* c = frequency [ (3, oneofl (List.init 16 (String.get "<>/&;#x=\"'?!- a1"))); (1, char) ] in
  return (doc, pos, c)

let prop_same_as_reference =
  qcheck_case ~count:1000 "same tree or same rejection as the reference"
    (QCheck.make ~print:(fun (d, p, c) -> Printf.sprintf "%S, byte %d := %C" d p c) gen_mutated)
    (fun (doc, pos, c) ->
      let mutated =
        if doc = "" then doc else String.mapi (fun i b -> if i = pos then c else b) doc
      in
      agree doc && agree mutated
      && List.for_all (fun k -> agree (String.sub doc 0 k)) (List.init (String.length doc) Fun.id))

let test_documents_parse () =
  (* The generator's unmutated documents are well-formed. *)
  let docs = QCheck.Gen.generate ~rand:(Random.State.make [| 44 |]) ~n:200 gen_doc in
  List.iter
    (fun d ->
      match X.of_string d with
      | _ -> ()
      | exception X.Parse_error m -> Alcotest.failf "rejected %S: %s" d m)
    docs

let test_entity_edges () =
  List.iter
    (fun (s, expect) ->
      Alcotest.(check (option string)) s expect
        (match X.of_string s with
         | e -> Some (X.text_content e)
         | exception X.Parse_error _ -> None))
    [
      ("<a>&#-5;</a>", None);
      ("<a>&#x41;&#65;&#128;</a>", None);
      ("<a>&#x41;&#65;</a>", Some "AA");
      ("<a> &#32; </a>", Some "");
      ("<a>&abcdefgh;</a>", None);
      ("<a>&#0000065;</a>", Some "A");
      ("<a>&#00000065;</a>", None);
    ]

(* The read-small workload's 1,000 definitions (seed 1), as the
   benchmark builds them. *)
let test_read_small_definitions () =
  let rng = Random.State.make [| 1; 1 |] in
  let domains = Gen.domains rng ~nics:true ~max_vcpus:4 ~prefix:"rs" 1000 in
  Array.iter
    (fun cfg ->
      let xml = Vmm.Domxml.to_xml ~virt_type:"test" cfg in
      let via_new = Vmm.Domxml.of_xml xml in
      let via_ref = Vmm.Domxml.of_element (Xml_reference.of_string xml) in
      Alcotest.(check bool) "decoders agree" true (via_new = via_ref);
      match via_new with
      | Ok (decoded, "test") ->
        Alcotest.(check bool) "decodes to its config" true (decoded = cfg)
      | Ok (_, t) -> Alcotest.failf "type %S" t
      | Error e -> Alcotest.failf "decode: %s" e)
    domains

let () =
  Alcotest.run "mini_xml_reference"
    [
      ( "differential",
        [
          quick "generated documents parse" test_documents_parse;
          quick "entity edges" test_entity_edges;
          prop_same_as_reference;
        ] );
      ("definitions", [ quick "read-small seed definitions" test_read_small_definitions ]);
    ]
