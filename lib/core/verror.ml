type code =
  | Internal_error
  | No_connect
  | Invalid_conn
  | Invalid_arg
  | Operation_invalid
  | Operation_failed
  | Operation_unsupported
  | No_domain
  | Dup_name
  | No_network
  | No_storage_pool
  | No_storage_vol
  | Auth_failed
  | Rpc_failure
  | No_client
  | No_server
  | Resource_exhausted
  | Overloaded

type t = { code : code; message : string }

exception Virt_error of t

(* Wire codes are frozen: appending only, never renumbering. *)
let all_codes =
  [
    (Internal_error, 1);
    (No_connect, 2);
    (Invalid_conn, 3);
    (Invalid_arg, 4);
    (Operation_invalid, 5);
    (Operation_failed, 6);
    (Operation_unsupported, 7);
    (No_domain, 8);
    (Dup_name, 9);
    (No_network, 10);
    (No_storage_pool, 11);
    (No_storage_vol, 12);
    (Auth_failed, 13);
    (Rpc_failure, 14);
    (No_client, 15);
    (No_server, 16);
    (Resource_exhausted, 17);
    (Overloaded, 18);
  ]

let code_to_int code = List.assoc code all_codes

let code_of_int n =
  match List.find_opt (fun (_, i) -> i = n) all_codes with
  | Some (code, _) -> code
  | None -> Internal_error

let code_name = function
  | Internal_error -> "internal error"
  | No_connect -> "no connection driver available"
  | Invalid_conn -> "invalid connection"
  | Invalid_arg -> "invalid argument"
  | Operation_invalid -> "operation invalid"
  | Operation_failed -> "operation failed"
  | Operation_unsupported -> "operation unsupported"
  | No_domain -> "domain not found"
  | Dup_name -> "name already in use"
  | No_network -> "network not found"
  | No_storage_pool -> "storage pool not found"
  | No_storage_vol -> "storage volume not found"
  | Auth_failed -> "authentication failed"
  | Rpc_failure -> "RPC failure"
  | No_client -> "client not found"
  | No_server -> "server not found"
  | Resource_exhausted -> "resource limit exceeded"
  | Overloaded -> "server overloaded"

(* The wire error model is code + message; the retry-after hint for
   [Overloaded] rides in the message as a parseable prefix. *)
let overloaded_prefix = "retry_after_ms="

let overloaded ~retry_after_ms fmt =
  Format.kasprintf
    (fun message ->
      Stdlib.Error
        {
          code = Overloaded;
          message =
            Printf.sprintf "%s%d: %s" overloaded_prefix retry_after_ms message;
        })
    fmt

let retry_after_ms e =
  if e.code <> Overloaded then None
  else
    let plen = String.length overloaded_prefix in
    if String.length e.message <= plen
       || not (String.starts_with ~prefix:overloaded_prefix e.message)
    then None
    else
      let rest = String.sub e.message plen (String.length e.message - plen) in
      match String.index_opt rest ':' with
      | None -> int_of_string_opt rest
      | Some i -> int_of_string_opt (String.sub rest 0 i)

let to_string e = Printf.sprintf "%s: %s" (code_name e.code) e.message
let pp fmt e = Format.pp_print_string fmt (to_string e)
let make code message = { code; message }

let error code fmt =
  Format.kasprintf (fun message -> Stdlib.Error { code; message }) fmt

let raise_err code fmt =
  Format.kasprintf (fun message -> raise (Virt_error { code; message })) fmt
