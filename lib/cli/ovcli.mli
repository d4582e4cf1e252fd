(** Command-line framework shared by the [ovirsh] and [ovirt-admin]
    shells: grouped command tables, ["--flag value"] parsing, one-shot
    and interactive (REPL) execution. *)

type parsed_args = {
  positional : string list;  (** in order *)
  flags : (string * string) list;  (** [--key value] pairs *)
  switches : string list;  (** bare [--key] with no value *)
}

val parse_args : string list -> (parsed_args, string) result
(** Tokens after the command name.  A flag consumes the next token unless
    that token starts with [--] (then it is a switch). *)

val flag : parsed_args -> string -> string option
val int_flag : parsed_args -> string -> (int option, string) result
val has_switch : parsed_args -> string -> bool

type command = {
  name : string;
  group : string;  (** section header in help output *)
  args_help : string;  (** e.g. ["<domain>"] *)
  summary : string;
  handler : parsed_args -> (string, string) result;
      (** returns the text to print, or an error message *)
}

val run_one :
  commands:command list -> program:string -> string list -> (string, string) result
(** Execute one command line (first token = command name); unknown
    commands and [help] are handled here. *)

val repl :
  commands:command list -> program:string -> prompt:string ->
  in_channel -> out_channel -> unit
(** Interactive loop; [quit]/[exit] or EOF ends it.  Errors print as
    ["error: ..."] without ending the loop. *)

val split_words : string -> string list
(** Shell-ish tokenizer: whitespace-separated, double quotes group. *)
