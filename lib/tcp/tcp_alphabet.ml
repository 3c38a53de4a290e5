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

(* one shared record per symbol: concretizing a symbol builds no flags *)
let syn = { Tcp_wire.no_flags with syn = true }
let syn_ack = { Tcp_wire.no_flags with syn = true; ack = true }
let ack = { Tcp_wire.no_flags with ack = true }
let ack_psh = { Tcp_wire.no_flags with ack = true; psh = true }
let fin_ack = { Tcp_wire.no_flags with fin = true; ack = true }
let rst = { Tcp_wire.no_flags with rst = true }
let ack_rst = { Tcp_wire.no_flags with ack = true; rst = true }

let flags = function
  | Syn -> syn
  | Syn_ack -> syn_ack
  | Ack -> ack
  | Ack_psh -> ack_psh
  | Fin_ack -> fin_ack
  | Rst -> rst
  | Ack_rst -> ack_rst

type output = symbol list

let output_to_string = function
  | [] -> "NIL"
  | symbols -> String.concat "," (List.map to_string symbols)

let pp_output fmt o = Format.pp_print_string fmt (output_to_string o)

(* Matches the header's flag bits (FIN 0x01, SYN 0x02, RST 0x04, PSH
   0x08, ACK 0x10, URG 0x20) directly. *)
let abstract (seg : Tcp_wire.segment) =
  match Tcp_wire.flag_bits seg.Tcp_wire.flags with
  | 0x02 -> Some Syn
  | 0x12 -> Some Syn_ack
  | 0x10 when seg.Tcp_wire.payload = "" -> Some Ack
  | 0x10 | 0x18 -> Some Ack_psh
  | 0x11 -> Some Fin_ack
  | 0x04 -> Some Rst
  | 0x14 -> Some Ack_rst
  | _ -> None
