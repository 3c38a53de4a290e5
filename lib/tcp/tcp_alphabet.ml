type symbol = Syn | Syn_ack | Ack | Ack_psh | Fin_ack | Rst | Ack_rst

let all = [| Syn; Syn_ack; Ack; Ack_psh; Fin_ack; Rst; Ack_rst |]

let to_string = function
  | Syn -> "SYN(?,?,0)"
  | Syn_ack -> "SYN+ACK(?,?,0)"
  | Ack -> "ACK(?,?,0)"
  | Ack_psh -> "ACK+PSH(?,?,1)"
  | Fin_ack -> "FIN+ACK(?,?,0)"
  | Rst -> "RST(?,?,0)"
  | Ack_rst -> "ACK+RST(?,?,0)"

let pp fmt s = Format.pp_print_string fmt (to_string s)

let flags s =
  let open Tcp_wire in
  match s with
  | Syn -> { no_flags with syn = true }
  | Syn_ack -> { no_flags with syn = true; ack = true }
  | Ack -> { no_flags with ack = true }
  | Ack_psh -> { no_flags with ack = true; psh = true }
  | Fin_ack -> { no_flags with fin = true; ack = true }
  | Rst -> { no_flags with rst = true }
  | Ack_rst -> { no_flags with ack = true; rst = true }

type output = symbol list

let output_to_string = function
  | [] -> "NIL"
  | symbols -> String.concat "," (List.map to_string symbols)

let pp_output fmt o = Format.pp_print_string fmt (output_to_string o)

let abstract (seg : Tcp_wire.segment) =
  let f = seg.Tcp_wire.flags in
  match Tcp_wire.flags_to_string f with
  | "S" -> Some Syn
  | "SA" -> Some Syn_ack
  | "A" when seg.Tcp_wire.payload = "" -> Some Ack
  | "A" | "AP" -> Some Ack_psh
  | "AF" -> Some Fin_ack
  | "R" -> Some Rst
  | "AR" -> Some Ack_rst
  | _ -> None
